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

VERIFY_10 = {
    "text": "6ec7c307a93b84b30bce78daaa16ea008830b51ca4313ae04a09573c4a01fa9d",
    "machine": "d0694dfb0bedea12112cef1a2a1db8026d0a87977fef128c18b38f54ccf09466",
}

# enumerate 14, hashed before enumeration moved from filtering every
# candidate to pruned generation.
ENUMERATE_14 = {
    "text": "d396bccc9a48a66c1fadfb858ce2a4b24e29bef6d7237f92434575eb9ff8b5ae",
    "machine": "b8d6f09e6a97dbf8b03337101c443d204adca6f8483869719a0593817b81806a",
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
    assert sha256(output(["verify", "10", "--format", fmt])) == VERIFY_10[fmt]


@pytest.mark.parametrize("fmt", sorted(ENUMERATE_14))
def test_enumerate_14(fmt):
    assert sha256(output(["enumerate", "14", "--format", fmt])) == ENUMERATE_14[fmt]


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


def test_find_mu_10_text():
    text = "".join(output(["find-mu", w]) for w in admissible_words(10))
    assert sha256(text) == FIND_MU_10_TEXT


@pytest.mark.parametrize("fmt", sorted(ITINERARY))
def test_itinerary(fmt):
    text = "".join(
        output(["itinerary", *args, "--format", fmt]) for args in ITINERARY_ARGS
    )
    assert sha256(text) == ITINERARY[fmt]
