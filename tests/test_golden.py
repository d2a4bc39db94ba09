"""Byte-identity of CLI output on a fixed corpus.

Each entry pins the SHA-256 of what ``kneadck`` prints for one corpus item,
so any change to the matrices, the groups, the verify report or the output
formats shows up here, whichever route computed them.  The hashes were
taken before the matrix family moved from rational solving to closed-form
integer inverses, and that move left every byte unchanged.

The random words were drawn with ``random.Random(1)`` by rejection
sampling (an ``R``, uniform ``L``/``R``, then ``C``, kept when admissible),
four per period, and are pinned here verbatim.
"""

import contextlib
import hashlib
import io
import itertools
import json

import pytest

from kneadck.cli import main
from kneadck.symbolic import enumerate_admissible

# verify N per format.  verify 2 is the one sweep that scores no word on
# not_permutation, so it pins the order of the checks and the zero count.
# The verify pins were re-hashed when the report stopped scoring the five
# checks that build_matrices decides; the rest of each output is unchanged.
VERIFY_10 = {
    "text": {
        10: "7f48ce62f65bf923e863456fb5703828196b338a7c155daf7b8d0eace282e24e",
        2: "4ef1164eacf51c23194444f2c9f1bb1e0c54c78ae9ae3e737bc6b72ff53f2030",
    },
    "machine": {
        10: "0cea34295af573062b44e67d8f271fd72aee4214f0f121fc24aab4a3f123b030",
        2: "ee77a88453203f69dc3506ae7b96605f4c5e2f23b6e4ae2d95ec42e3469c8b35",
    },
}

# verify 12 per format.
VERIFY_12 = {
    "text": "ce8cfac6226fd9381da062667c28c888300d3058c5a2e75669ed3037e6e54f89",
    "machine": "79e691d7f995877b5f28c3b03c72b4d4d9aab65883c7b03beed8684f6b5d6245",
}

# verify 14 per format, hashed before verify read its words from the
# search.  Periods 13 and 14 span 10 and 19 stacks of 32 words.
VERIFY_14 = {
    "text": "4281bdef8a919a1d18a81e6472a47a4e5be59f2a68502eddd7a057348797c25b",
    "machine": "87e215cd1404a52495451be0341c6512413ed4c83a844b7ec70cfb5ca2743ae3",
}

# enumerate 14, hashed before enumeration moved from filtering every
# candidate to pruned generation.
ENUMERATE_14 = {
    "text": "d396bccc9a48a66c1fadfb858ce2a4b24e29bef6d7237f92434575eb9ff8b5ae",
    "machine": "b8d6f09e6a97dbf8b03337101c443d204adca6f8483869719a0593817b81806a",
}

# enumerate 18 (7,280 words, the largest census size) per argument list,
# hashed before the search spelled its words as text.
ENUMERATE_18 = {
    ("--format", "text"): "05971539d342dbcb3674c842ddf2aa69283e2b3919cf9efaa6dccd2186950a6c",
    ("--format", "machine"): "0b28952a739f19b9bcd6b354dd00f927a2bed65c2e0cafef0e2ed6c57aa84023",
    ("--count-only",): "6a34486e16b1d0182e4794822552e9155bc46f8441ef394aae0115e98f38ba55",
}

# enumerate 20 (26,214 words) per format, hashed while the search still
# returned each word's invariant coordinates rather than its a.
ENUMERATE_20 = {
    "text": "8e845a1cec4aacb87ecbef821f8487e0cefae9b9787384f2d4341c9c6fe7fd00",
    "machine": "78dee4cc03d74f66984c75ce9e17be0d8d869c57c3fe0ca40ef917385b9bf7e4",
}

# matrices W --format machine over every admissible word of the period,
# concatenated in enumeration order.
MATRICES_BY_PERIOD = {
    2: "aa995db69707cbe0baef8eb68bef92a89fe79e9967ca1d9a2ff4c301eb60fc68",
    3: "d3f134f7a76d7ffa8145172e64bb676fb61a543775eee96c7e741251be0bb0de",
    4: "2a892773b44013bc3d43b2e4b7c4446a3e08d8d1bd1bb254c9702f2268423757",
    5: "b7d24f3939c20acfa0f7c2ada3182ec37c7230b1b94a6a0ec197d044c910d0aa",
    6: "3f3094a6a774b10ed44c382f16aa31659aa2e924ca6a020ebb1e5a8be13a5a14",
    7: "8cc8a6cb98eb75c9aff275459f84449d132beae3472b2f299f23147fa780b72d",
    8: "f5d2b7c1d94b90cac272f67d57859e20f6a7f745912d9666095a89d724447f82",
    9: "bd9081f70e3deff7df1634884176bda503d313bb03da790784c9042a511c43ef",
}

MATRICES_RANDOM = {
    "RLLRLRRRRLLRLRRC": "10daa39fc9189f21196e7c0bc6db7fd4ecd0d29e93b66dfe7083ee1d14c951be",
    "RLLLLLLRRRRRLRLC": "7211aa4f961558a71c80fe9167c809f8f16ccd380f3f50756792ec9e145696a6",
    "RLLLLLRLLLLRLRLC": "db4f134fb1146b8b7ca0e9376609bb61b9d5967ed3a4dbb209a9fb530c261827",
    "RLLLRRRRRRLRLRLC": "fbe5ee9fe9ccfd99b06a8b3acfe07a0ca41f329058bc09883244d83650f8d70f",
    "RLLLLLRRRLLRLLLRRRRLLRRLLRLLRLLC": "54a4b877b7197cc4d9351c1a9909767a6b68aef2c9c1810c2da0edc3d64fc288",
    "RLLLLLLRRLRRRRLRLRLRLRRLLLLLRRRC": "88612668eb47788fd895475252343fc08b2608f6f92574354db14fcd78c53efb",
    "RLLLRLRRLRRLLLRLLRRLRRLLRLLRLRRC": "84ebdd6aecc38459902f50c5bdb15ba314e0642f3541aefa0a24565412bac938",
    "RLLLLLRLRRLLRLRLRLRRRRLLRLRRLLLC": "ec785c20a7ac5dccb52fb525cfc2ed3a90fcf6ad02a139c7105bcc1d215db01d",
}

# matrices W --format text on the words of MATRICES_RANDOM, hashed while
# the matrix family was still spelled as int64 arrays.
MATRICES_RANDOM_TEXT = {
    "RLLRLRRRRLLRLRRC": "87ac8f2731d7ef682fd232e8006e037470f33def636a1ea44660a00816aa59dc",
    "RLLLLLLRRRRRLRLC": "b55a4a154a75b2267d6b3685ef1a84f60cc54ff542895d9eb36db31e2f5e20a7",
    "RLLLLLRLLLLRLRLC": "64dbda70e9ebf71c8b7e3c076217b5ae57dd55695c39950193d4cfa0ae802025",
    "RLLLRRRRRRLRLRLC": "a99d37ab94a762742f98f9a4b2c25173b5dc0270822ca5d68cc8f7a35c8a4f56",
    "RLLLLLRRRLLRLLLRRRRLLRRLLRLLRLLC": "c860d4ba2e1a35c5dcdf50dea259521080a0c90415255938629eebddabdd4aac",
    "RLLLLLLRRLRRRRLRLRLRLRRLLLLLRRRC": "606dea38d801a741f66bf685ac5229bc67fc5c4c053b3c8596c55b3f53b3de08",
    "RLLLRLRRLRRLLLRLLRRLRRLLRLLRLRRC": "31927522ee47fd583f33bf5292992f0e78279c358ed2ecfef6f480508fb35245",
    "RLLLLLRLRRLLRLRLRLRRRRLLRLRRLLLC": "a3560db918ec734e67df81fd04318a620ec722f3a03974693685391e9f27227c",
}

# find-mu W --format machine, the "results" object of every admissible word
# with n <= 12 except the ones below, concatenated in enumeration order.
# Hashed while the parameter was found by a sign-change grid, which refused
# the excluded words; the bisection on the kneading order resolves them too.
FIND_MU_12 = "dd9a7fd96e39b763a985ca0887c3fffbf1c2c4d5348a6775e79c0b15a1a71156"
FIND_MU_GRID_REFUSED = frozenset(
    """
    RLLLLLLLLC RLLLLLLLRC RLLLLLLLLLC RLLLLLLLLRC RLLLLLLLRLC RLLLLLLRRLC
    RLLLLLLLLLLC RLLLLLLLLLRC RLLLLLLLLRLC RLLLLLLLRLLC RLLLLLLLRLRC
    RLLLLLLLRRLC RLLLLLLLRRRC RLLLLLLRLLRC RLLLLLLRLRLC RLLLLLLRLRRC
    RLLLLLLRRLLC RLLLLLLRRLRC RLLLLLLRRRLC RLLLLLLRRRRC RLLLLLRLLLLC
    RLLLLLRRLRLC RLLLLLRRLRRC RLLLRRRLLLRC
    """.split()
)


# The pins below were hashed while kgroups, find-mu and itinerary still
# wrote their text line by line beside their results.
#
# kgroups W over every admissible word with n <= 10, concatenated in
# enumeration order.
KGROUPS_10 = {
    "text": "71d5b407076a9c3d06c2a85715b96c2c988e55999e547120b8ecce7f44d19031",
    "machine": "616af4f7757f094c8ac49c751102bf96534a16c4cf2321827ae4dca68e3c785b",
}

# kgroups W --force and matrices W --force over every word {L,R}^(n-1) C
# with n <= 7, admissible or not, in text order: the exit code, stdout and
# stderr of each call.
FORCED_7 = {
    ("kgroups", "text"): "7c43b3076823d705c0a82308a03faf59b62737c4cba45cf7d4d7b6a7e81d0085",
    ("kgroups", "machine"): "051df192d1e559200fca8129d1e0a935da688817cf0fb9d2057e58cbb3ff2d4c",
    ("matrices", "text"): "2ffca3d45e7c003eb70d9d65a000bc49e25b24b22b509bba73635465334ab0ea",
    ("matrices", "machine"): "19694a846bb6232b1262a40f8649e00b1b378dcaf3c10f8bf4968e41664cb81e",
}

# kgroups W and matrices W without --force over C, RLX and every word
# {L,R}^(n-1) C with n <= 7, in that order: the exit code, stdout and
# stderr of each call, so the gate's refusals are pinned byte for byte
# beside the output of the words it lets through.
UNFORCED_7 = {
    ("kgroups", "text"): "4d6592d762e70159f39389e729f69a2e7c1cd517c3ee58cfc8bcb64b9cbff107",
    ("kgroups", "machine"): "f903008b240e15c870d08caacb985ad507f6ef0d199b068dcb1ad5cffd622e12",
    ("matrices", "text"): "cf51a0896a9ab469a493b47832d14ef0781961bf47276df8c3faea2d9b1547f3",
    ("matrices", "machine"): "d11642d3e769d1b66f5d27b82f99882dc4cd401e3333f90dd85a6deb558dbe21",
}

# kgroups W --format machine on the words of the long_words benchmark
# workload with seed 1 (random admissible words of periods 64 and 128, in
# its shuffled order).  Hashed while the Smith elimination still ran on
# int64 and moved to Python ints only when an entry could overflow.
KGROUPS_LONG = {
    "RLLLLLRRRRLRRRRLLLRRLLRLRLLRRRRRLLRRLLRRLRRLRLLRRRLLLLRLRRLRLLLC":
        "a59487fcaea35e3b9e6d15c4137c75308ad9792a681a04ae9abbf2d8c8519730",
    "RLLLRLRRRRLRLLRLLRRRRLRRLLRRLRRLLRRLRLLRLRLLRRRRRRRLRRRLRLLRLLRC":
        "b9266bc62c1b288618d57b8b990da10ecb0c57283d59ea9668c3799da805b519",
    "RLLLLLRRRLLRRRLLRLRLRRLRLLRLRRLLLRRRLRRLLLRLRLRRRRRLRLLLRRLRRRLC":
        "bb878d370c02f401e827f2d0550190c971e4f6756be5df3ee4f8cf746567a90f",
    "RLLLLLLLLRLLLRLLRRLRRRLRLLRRRRLLLLRLRLRRLRLLRRLLRLRRRLRRRLRLLLRRRRRLLRRLLRRRLRRLLLRLRRRLRRLLLRRLLLRLRLLRRRRLLLRLRLLLRLRLLLRRRLLC":
        "46059829ca07c2cabcc04033d0cdeac9b8366ba1d7330a2815fe3cbcf1278e92",
    "RLLLLLRRLLLLRLRRLRLLLRLLRLLLLRLLRRLRRRRRRRRLLRRRRRRLLRLRLRLRLLLLLRLRRLRRRLLLRLLRRRRLRRRRLRRLLRRLRLLLLRLLLRLLLRRRRRRLRLRRRRRLRRRC":
        "e384f40fb5bc876663f8751684fd58e039e22c028e06d371ff359ba2fdc506d3",
    "RLLLLLLRLRLLRRRLRRRLRLRLLRLRLRLRRLRLLLLLRLRRLLLLRLRLLRLRRRRRRRRLRRRLRRLLLRLLLRRLRLLRLLRRRRRRRRLLLRRRRLRRLLLRRRRRLRRRRRRRLRLLRRRC":
        "2e83391efaad04341fd74aa4ceeb060c34221dbce69964ac268ce83edfed88bd",
    "RLLLLLRLLRLRLRLRLRRRRLRRRRLRRLLLRRLLLLRLLLLRLRRLLRLLLLRRRRLRLRLC":
        "ea31f14956d35a8e632a852f7485b17b5a60ee5c746f3e12dac7b7801af2ed9c",
    "RLLLLLLRRLLLLRRRRRRLRRLRLRLRRLRLLRLRRRLRLRLRRRLLRLRRLRRLRRRRLLLC":
        "8634175736a73d4bfe415894cb5e3d46e035769c544581ce4acdb865c4709128",
    "RLLLRRRRLLLRLLRRLLRRRLRRRLLLRLLRRRRLRLLRLLRRLLRRRRLLLRLRLLLRLRRC":
        "981d47dff7acaba33a12d4b5e740eef7745f0eb0f3878742707cc36f5038b536",
    "RLLLLLRRRRRRRRLLLRRRLLLRRLLRLLRRRRLLRRLRLLRLRLLRRLRRRLRRLLRRLRRC":
        "5e0c14a749e76447872d75e1066a66600687e0ac8d3a920b4c50f4dfc15b3782",
    "RLLLLRLRLLRRRLRRLRRRRLRRRRLLRRRLRLLRRLRRRRLRLLLLRLLRRRLRRLLRRLRC":
        "943a9c88df7b51f7ae12159ab7d302b90c45db53993d2733c9a86682649d8e4d",
    "RLLLLLRLRRLLRLLLRLRRLRLRLRLLRRLRRLLRLRLLLLRLRRLRLRLLLRRLLLRRRRRC":
        "22323e0b65e8c7cf214e2fc3b24891fa09f30165fe8157e2c7b2591f84d4a4c4",
    "RLLLLLLLLRRRLLRLRRRRLRRRLRRLLLLLRLLLRLLRRRRRLRRLRRLLRLRLLRRLLRLRLLRRLLLRLRRLLRLLLRLRRRLRRLLRLRLRLLRLRRLLLRRLRRRRLRLRLRRRLRLRRRRC":
        "43156dfdab9a6a9d8d198f69c0d94c4cf8a6003fceb36212abb04558384d9538",
    "RLLLLLLLLLRLRRLRLLRLRRLRRRRRLRLLLRRLRRRRRRLLRLLRRRRRRLRLLRLRLLLRRRLLLRRRRLLRRRRRLLRLLLRLLLRRLRRRRLLRLLRLLLLRRLLLLLLRRLRLLLLRRLLC":
        "d855560340b5d684834bf4c1acbc4ab8ed2fffaaff51e4bb3b535a6e3b889740",
    "RLLLLRRLLLLRRLLRRRLRRRRRRRLRLRRLLRLRLRRLLLLRRLLLRLRLLLRRLLRRLLLC":
        "ee37014f8c0d08c43fc6356c3d56ada7a71623fdafdd00c5fe51787a8c75e3a1",
    "RLLLLLLRRRRLRLLLRRRLLLLRRLRRRLRRRLLLRLRLLRRRRLRLRLLRRLLRRRLLLRRC":
        "ab2f0d9795d70b15c6e4ebf6016bd2bf363503b2d637e4217f1138105dd8520a",
    "RLLLLRRRRRRLRRRRRRLRLRRRRRLRRRRRLRLLRLRLLLLRLLRRLLRRRRRLRRRLRLRC":
        "5e736f494c85bb3ac9a56e50731c2ee61c6d4e682f20c55b9d56e79cc317c15d",
    "RLLLLLLRRLRRRRLLRLLRLLRLRLLRLLLRLRRLLLLRRLRLLRLRRRRLRLRLRRRRLRLC":
        "e6d25bab9c12e4d04c74476b442151a6a1e5a4da49e17baba4d6401cc1d214b8",
    "RLLLRRLRRLLLRLRLRRLLLRRRRRRLLRRRRLRRLLRRLLRLLRLLRLLRLRRLLRRRRLRC":
        "6f5512dfc01f34efec99e3f8f88e1bbef0da3be663911ab7a29360592e20d6eb",
    "RLLLLLLLRLLLLLLRLLRLLLRRRRLLRRLRRLLLRRRRRLLRLRLRLLRRRRRRRLRLRLRRRLLRRLLRLRLRRLRRRRRRRRLRLLRLRLLRLLRRLRRLLLLRLLRRLLLLRLLLLLRRLLLC":
        "f470cbcd81f70f73e80053ad089bbd6898fd5fbbb4d1aa16b59c8a6d82963746",
    "RLLLLLRRRRRRLRRRRLLRRLRLRLLRLLRLRRRRRRLRRRRLLRRRLRLRRLLLRLLRRRRC":
        "d9dd6415db44fd9c71e9166879c3991daaebcdc7945b63a79665b757c5d538f2",
    "RLLLLLLRRRRLRLLRLLLLRLRRRLLRRLRRRRLRLRRLLLLRRRLLRRRRRLRLLLRLRRRC":
        "1e8e428156bc26b180ae506bd5a80ee577ec810eed32d105326f51a684f88ff7",
}

# find-mu W text over every admissible word with n <= 10.
FIND_MU_10_TEXT = "f0a7a41fb22c265c0705c2b8f42093f968e696cc7b90878f101177e810808749"

# itinerary over fixed argument sets, concatenated; one pin per format.
ITINERARY_ARGS = (
    ("--mu", "3.2", "--depth", "20"),
    ("--mu", "3.8318740552833", "--depth", "12"),
    ("--mu", "4", "--x0", "0.1", "--depth", "30"),
    ("--mu", "3.5", "--x0", "0.25", "--depth", "8", "--precision", "4"),
    ("--mu", "2.5", "--depth", "5", "--tol", "1e-3"),
    ("--mu", "3.9", "--x0", "0.5", "--depth", "16"),
)
ITINERARY = {
    "text": "74e796e687dec38d39bb07179c8c73a363ee644327758a388c32cf54539a67ee",
    "machine": "9e739ef153e091a6eba6bf9b5c23cd9da15e29e5190152ac6e94ebc9d40df115",
}


def output(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


def streams(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def every_word(max_n):
    """All words {L, R}^(n-1) C with 2 <= n <= max_n, admissible or not."""
    return [
        "".join(tail) + "C"
        for n in range(2, max_n + 1)
        for tail in itertools.product("LR", repeat=n - 1)
    ]


def admissible_words(max_n):
    return [str(w) for n in range(2, max_n + 1) for w in enumerate_admissible(n)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fmt", sorted(VERIFY_10))
def test_verify_10(fmt):
    for n_max, digest in VERIFY_10[fmt].items():
        assert sha256(output(["verify", str(n_max), "--format", fmt])) == digest, n_max


@pytest.mark.parametrize("fmt", sorted(VERIFY_12))
def test_verify_12(fmt):
    assert sha256(output(["verify", "12", "--format", fmt])) == VERIFY_12[fmt]


@pytest.mark.parametrize("fmt", sorted(VERIFY_14))
def test_verify_14(fmt):
    assert sha256(output(["verify", "14", "--format", fmt])) == VERIFY_14[fmt]


@pytest.mark.parametrize("fmt", sorted(ENUMERATE_14))
def test_enumerate_14(fmt):
    assert sha256(output(["enumerate", "14", "--format", fmt])) == ENUMERATE_14[fmt]


@pytest.mark.parametrize("flags", list(ENUMERATE_18), ids=" ".join)
def test_enumerate_18(flags):
    assert sha256(output(["enumerate", "18", *flags])) == ENUMERATE_18[flags]


@pytest.mark.parametrize("fmt", sorted(ENUMERATE_20))
def test_enumerate_20(fmt):
    assert sha256(output(["enumerate", "20", "--format", fmt])) == ENUMERATE_20[fmt]


@pytest.mark.parametrize("n", sorted(MATRICES_BY_PERIOD))
def test_matrices_every_word_of_period(n):
    text = "".join(
        output(["matrices", str(w), "--format", "machine"])
        for w in enumerate_admissible(n)
    )
    assert sha256(text) == MATRICES_BY_PERIOD[n]


@pytest.mark.parametrize("word", sorted(MATRICES_RANDOM))
def test_matrices_random_word(word):
    assert sha256(output(["matrices", word, "--format", "machine"])) == MATRICES_RANDOM[word]


@pytest.mark.parametrize("word", sorted(MATRICES_RANDOM_TEXT))
def test_matrices_random_word_text(word):
    assert sha256(output(["matrices", word, "--format", "text"])) == MATRICES_RANDOM_TEXT[word]


def test_find_mu_12():
    words = [
        str(w)
        for n in range(2, 13)
        for w in enumerate_admissible(n)
        if str(w) not in FIND_MU_GRID_REFUSED
    ]
    assert len(words) == 355
    text = "".join(
        json.dumps(json.loads(output(["find-mu", w, "--format", "machine"]))["results"], indent=2)
        + "\n"
        for w in words
    )
    assert sha256(text) == FIND_MU_12


@pytest.mark.parametrize("fmt", sorted(KGROUPS_10))
def test_kgroups_10(fmt):
    text = "".join(output(["kgroups", w, "--format", fmt]) for w in admissible_words(10))
    assert sha256(text) == KGROUPS_10[fmt]


@pytest.mark.parametrize("command, fmt", sorted(FORCED_7))
def test_forced_every_word_7(command, fmt):
    text = "".join(
        streams([command, w, "--force", "--format", fmt]) for w in every_word(7)
    )
    assert sha256(text) == FORCED_7[command, fmt]


@pytest.mark.parametrize("command, fmt", sorted(UNFORCED_7))
def test_unforced_every_word_7(command, fmt):
    text = "".join(
        streams([command, w, "--format", fmt]) for w in ["C", "RLX", *every_word(7)]
    )
    assert sha256(text) == UNFORCED_7[command, fmt]


def test_find_mu_10_text():
    text = "".join(output(["find-mu", w]) for w in admissible_words(10))
    assert sha256(text) == FIND_MU_10_TEXT


@pytest.mark.parametrize("fmt", sorted(ITINERARY))
def test_itinerary(fmt):
    text = "".join(
        output(["itinerary", *args, "--format", fmt]) for args in ITINERARY_ARGS
    )
    assert sha256(text) == ITINERARY[fmt]


@pytest.mark.parametrize("word", list(KGROUPS_LONG))
def test_kgroups_long_word(word):
    assert sha256(output(["kgroups", word, "--format", "machine"])) == KGROUPS_LONG[word]
