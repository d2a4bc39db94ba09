import ast
import os
import pathlib
import subprocess
import sys

import kneadck
import kneadck.markov

from test_golden import VERIFY_10

# The public names of the package.  A name leaves this list only with its
# removal from the API, so a deleted function cannot quietly come back.
PUBLIC = [
    "AbelianGroup",
    "C_TOL",
    "ConstructionError",
    "DomainError",
    "KGroupReport",
    "KneadingWord",
    "OrbitModel",
    "ParseError",
    "QuadMap",
    "SolverError",
    "SuperstableResult",
    "Symbol",
    "TheoremMatrices",
    "TheoremViolationError",
    "VerifyReport",
    "build_matrices",
    "build_orbit",
    "closed_form_a",
    "enumerate_admissible",
    "find_superstable_mu",
    "invariant_coordinate",
    "is_admissible",
    "k_groups",
    "numeric_itinerary",
    "parse_word",
    "smith_diagonal",
    "verify",
]


def test_all_is_pinned():
    assert kneadck.__all__ == PUBLIC


def test_all_is_sorted_without_duplicates():
    assert kneadck.__all__ == sorted(set(kneadck.__all__))


def test_every_name_resolves():
    for name in kneadck.__all__:
        assert hasattr(kneadck, name), name


# Calls that multiply matrices; the package builds its matrix family by
# index maps instead, in O(n^2) per word.
PRODUCTS = {"matmul", "dot", "einsum", "tensordot"}


def matrix_products(source: str, name: str) -> list[str]:
    """Every ``@`` and every call of a product function in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{name}:{node.lineno}: @")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PRODUCTS
        ):
            found.append(f"{name}:{node.lineno}: {node.func.attr}")
    return found


def test_scan_finds_every_kind_of_product():
    source = "C = A @ B\nC @= B\nnp.matmul(A, B)\nnp.dot(A, B)\nnp.einsum('ij,jk', A, B)\n"
    source += "np.tensordot(A, B, 1)\nA.dot(B)\n"
    assert [f.split(": ")[1] for f in matrix_products(source, "probe")] == [
        "@", "@", "matmul", "dot", "einsum", "tensordot", "dot",
    ]


def test_no_matrix_product_in_the_package():
    package = pathlib.Path(kneadck.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += matrix_products(path.read_text(), path.name)
    assert found == []


def indented_dumps(source: str, name: str) -> list[str]:
    """Every ``dump`` or ``dumps`` call in ``source`` that passes ``indent``;
    machine output has one writer, ``cli._machine_json``."""
    return [
        f"{name}:{node.lineno}: {node.func.attr}"
        for node in ast.walk(ast.parse(source, name))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"dump", "dumps"}
        and any(k.arg == "indent" for k in node.keywords)
    ]


def test_scan_finds_indented_dumps():
    source = "json.dumps(doc, indent=2)\njson.dump(doc, f, indent=None)\njson.dumps(doc)\n"
    assert indented_dumps(source, "probe") == ["probe:1: dumps", "probe:2: dump"]


def test_no_indented_dumps_in_the_package():
    package = pathlib.Path(kneadck.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += indented_dumps(path.read_text(), path.name)
    assert found == []


def numpy_imports(source: str, name: str) -> list[str]:
    """Every import of numpy in ``source`` that runs; one in the body of
    ``if TYPE_CHECKING:`` only names types for annotations."""
    tree = ast.parse(source, name)
    typing_only = {
        id(node)
        for top in ast.walk(tree)
        if isinstance(top, ast.If) and ast.unparse(top.test).endswith("TYPE_CHECKING")
        for statement in top.body
        for node in ast.walk(statement)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if id(node) not in typing_only and any(m.split(".")[0] == "numpy" for m in modules):
            found.append(f"{name}:{node.lineno}")
    return found


def test_scan_finds_every_numpy_import_that_runs():
    source = "import numpy as np\nfrom numpy import zeros\nimport os, numpy.linalg\n"
    source += "from .numpy import x\nimport numpyro\nif typing.TYPE_CHECKING:\n    import numpy\n"
    source += "if TYPE_CHECKING:\n    import numpy as np\nelse:\n    import numpy\n"
    source += "def f():\n    import numpy\n"
    assert numpy_imports(source, "probe") == [f"probe:{k}" for k in (1, 2, 3, 11, 13)]


def test_no_module_imports_numpy():
    # The matrix family is spelled in Python ints: no module of the
    # package imports numpy, in a function or at its top.
    package = pathlib.Path(kneadck.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += numpy_imports(path.read_text(), path.name)
    assert found == []


def test_every_command_runs_with_numpy_blocked():
    # A None entry in sys.modules makes every import of numpy raise, so the
    # package runs each subcommand without it, and verify 10 prints its
    # pinned text.
    code = (
        "import contextlib, hashlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('numpy was not blocked')\n"
        "import kneadck, kneadck.cli\n"
        "def run(*argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert kneadck.cli.main(list(argv)) == 0, argv\n"
        "    return out.getvalue()\n"
        "for fmt in ('text', 'machine'):\n"
        "    run('matrices', 'RLLRLRRRRLLRLRRC', '--format', fmt)\n"
        "run('kgroups', 'RLLRC')\n"
        "run('verify', '8')\n"
        "run('enumerate', '8')\n"
        "run('find-mu', 'RLLRC')\n"
        "run('admissible', 'RLC')\n"
        "run('itinerary', '--mu', '3.5')\n"
        "print(hashlib.sha256(run('verify', '10').encode()).hexdigest())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(kneadck.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, VERIFY_10["text"][10] + "\n", "")


# The checks verify scores on the matrix family, listed once: in
# ktheory.CHECKS.  closed_form_k0 and k1_rank are left out; they
# are the keys of ktheory._closed_form_failures, which k_groups shares.
FAMILY_CHECKS = {
    "identity_A_eta",
    "block_form",
    "construction_equivalence",
    "snf_multiset",
    "cokernel_bridge",
    "zero_rows_cols",
    "not_permutation",
}


def check_names(source: str, name: str) -> list[str]:
    """Every string constant in ``source`` equal to a name of
    ``FAMILY_CHECKS``, in line order."""
    found = [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source, name))
        if isinstance(node, ast.Constant) and node.value in FAMILY_CHECKS
    ]
    return [f"{name}:{line}: {value}" for line, value in sorted(found)]


def test_scan_finds_every_check_name():
    source = 'passed = {"block_form": ok}\nif "not_permutation" not in passed:\n    pass\n'
    source += 'def f():\n    """Scores block_form."""\n    return ("k1_rank", "snf_multiset")\n'
    assert check_names(source, "probe") == [
        "probe:1: block_form", "probe:2: not_permutation", "probe:6: snf_multiset",
    ]


def test_check_names_are_written_in_ktheory_only():
    # verify and every other module read the names off the table of checks.
    package = pathlib.Path(kneadck.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += check_names(path.read_text(), path.name)
    assert {f.split(":")[0] for f in found} == {"ktheory.py"}
    assert {f.split(": ")[1] for f in found} == FAMILY_CHECKS


def readers_of(source: str, name: str) -> list[str]:
    """The top-level function or class, or ``<module>``, of every read of
    ``name`` in ``source``: each load of the bare name, each attribute of
    that name and each import of it, in source order."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name
            ):
                found.append(where)
    return found


def test_scan_finds_every_read_of_a_name():
    source = "from .symbolic import _TOKENS\n_TOKENS = {}\n"
    source += "def f():\n    return symbolic._TOKENS.get\n"
    source += "class K:\n    def g(self):\n        return _TOKENS\n"
    assert readers_of(source, "_TOKENS") == ["<module>", "f", "K"]
    assert readers_of("_TOKENS = {}\n", "_TOKENS") == []


def test_the_parse_table_is_read_in_parse_word_only():
    # Every word text, the search's included, is read by parse_word.
    package = pathlib.Path(kneadck.__file__).parent
    found = {path.name: readers_of(path.read_text(), "_TOKENS") for path in package.glob("*.py")}
    assert {module for module, where in found.items() if where} == {"symbolic.py"}
    assert set(found["symbolic.py"]) == {"parse_word"}


def private_imports(source: str, name: str) -> list[str]:
    """Every private name that ``source`` imports from a sibling module,
    wherever the import stands, as ``name: module._name``."""
    return [
        f"{name}: {node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source, name))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_scan_finds_every_private_import():
    source = "from .markov import _spell, build_orbit\nfrom . import _x\nfrom os import _exit\n"
    source += "from .symbolic import (\n    DomainError,\n    _word_text as w,\n)\n"
    source += "def f():\n    from .intlinalg import _g\n"
    assert private_imports(source, "probe") == [
        "probe: markov._spell", "probe: symbolic._word_text", "probe: intlinalg._g",
    ]


# The private names one module of the package reads from another.
SEAMS = {
    "ktheory: markov._run_form",
    "cli: symbolic._word_text",
}


def test_private_names_cross_modules_at_the_seams_only():
    # The integer layer lends no private name: ktheory owns its graph search.
    package = pathlib.Path(kneadck.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += private_imports(path.read_text(), path.stem)
    assert sorted(found) == sorted(SEAMS)


def raises_in(source: str, function: str) -> list[int]:
    """The line of every ``raise`` in the top-level ``function`` of
    ``source``, nested blocks included; none if there is no such function."""
    return [
        node.lineno
        for top in ast.parse(source).body
        if isinstance(top, ast.FunctionDef) and top.name == function
        for node in ast.walk(top)
        if isinstance(node, ast.Raise)
    ]


def test_scan_finds_every_raise_of_a_function():
    source = "def f(x):\n    if x:\n        raise ValueError\n    for y in x:\n        raise\n"
    source += "def g():\n    raise KeyError\n"
    assert raises_in(source, "f") == [3, 5]
    assert raises_in(source, "h") == []


def test_run_form_raises_nothing():
    # The word's rule and the model's rule leave the run form nothing to refuse.
    source = pathlib.Path(kneadck.markov.__file__).read_text()
    assert raises_in(source, "_run_form") == []


def test_build_orbit_leaves_the_turning_point_to_the_model():
    # build_orbit refuses a short period only: its keys never tie, and
    # where the turning point sits is OrbitModel's rule alone.
    source = pathlib.Path(kneadck.markov.__file__).read_text()
    assert len(raises_in(source, "build_orbit")) == 1


def raisers_of(source: str, error: str) -> list[str]:
    """The top-level definition around every ``raise error`` or
    ``raise error(...)`` of ``source``, one name per raise."""
    return [
        top.name
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Raise)
        and isinstance(exc := getattr(node.exc, "func", node.exc), ast.Name)
        and exc.id == error
    ]


def test_scan_finds_every_raiser_of_an_error():
    source = "class M:\n    def f(self):\n        raise E('x')\n"
    source += "def g(x):\n    if x:\n        raise E\n    raise KeyError(x)\n"
    assert raisers_of(source, "E") == ["M", "g"]
    assert raisers_of(source, "KeyError") == ["g"]


def test_only_the_orbit_model_raises_construction_error():
    # A malformed model is the only construction failure left.
    source = pathlib.Path(kneadck.markov.__file__).read_text()
    assert raisers_of(source, "ConstructionError") == ["OrbitModel", "OrbitModel"]


def sibling_imports(source: str) -> list[str]:
    """The sibling module of every ``from .x import`` and every name of
    every ``from . import x`` in ``source``, wherever it stands."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.append(node.module.split(".")[0])
            else:
                found += [alias.name for alias in node.names]
    return found


def function_imports(source: str, name: str) -> list[str]:
    """Every import in the body of a function of ``source``, as
    ``name:function: module`` with the dotted path of the function."""
    found = []

    def visit(node, path, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_function = not isinstance(child, ast.ClassDef)
                visit(child, path + [child.name], in_function or is_function)
            elif in_function and isinstance(child, ast.Import):
                found.extend(f"{name}:{'.'.join(path)}: {a.name}" for a in child.names)
            elif in_function and isinstance(child, ast.ImportFrom):
                module = "." * child.level + (child.module or "")
                found.append(f"{name}:{'.'.join(path)}: {module}")
            else:
                visit(child, path, in_function)

    visit(ast.parse(source, name), [], False)
    return found


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of ``graph``, ``{module: modules it imports}``, as a path
    that ends where it starts; ``[]`` when the graph is acyclic."""
    done = set()

    def search(node, path):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        for after in sorted(graph.get(node, ())):
            if cycle := search(after, path + [node]):
                return cycle
        done.add(node)
        return []

    for node in sorted(graph):
        if cycle := search(node, []):
            return cycle
    return []


def test_scan_finds_every_import_structure():
    source = "from .a import x\nfrom . import b, c\nfrom .. import d\nimport e\nfrom f import g\n"
    source += "def h():\n    from .i.j import k\n    import numpy as np\n"
    source += "class K:\n    import os\n    def m(self):\n        def inner():\n"
    source += "            import logging\n"
    assert sibling_imports(source) == ["a", "b", "c", "i"]
    assert function_imports(source, "probe") == [
        "probe:h: .i.j", "probe:h: numpy", "probe:K.m.inner: logging",
    ]
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert import_cycle({"a": {"b", "c"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]
    assert import_cycle({"a": {"a"}}) == ["a", "a"]


def test_package_imports_run_one_way():
    # Every sibling import stands at the top of its module, and none closes
    # a cycle; only the logging of verify loads when a function first runs.
    package = pathlib.Path(kneadck.__file__).parent
    graph, deferred = {}, []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        graph[path.stem] = set(sibling_imports(source))
        deferred += function_imports(source, path.name)
    assert import_cycle(graph) == []
    assert deferred == ["ktheory.py:verify: logging"]
