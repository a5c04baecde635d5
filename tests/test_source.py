"""Properties of the library source itself."""

import ast
import importlib
import pathlib
import re
import sys

import pytest

import periodkit

ROOT = pathlib.Path(__file__).parent.parent


def test_no_assert_statements_in_library():
    # Invariant checks raise InvariantFailed explicitly: python -O strips
    # assert statements, and an AssertionError is no PeriodkitError, so the
    # CLI would end in a traceback.
    def asserts(node):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            return ast.unparse(raised) == "AssertionError"
        return isinstance(node, ast.Assert)

    sources = sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if asserts(node)
    ]
    assert found == []


def raise_sites(name):
    """file:line of every `raise name` and `raise name(...)` in the library."""
    sources = sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py"))
    assert sources
    return [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == name
    ]


def test_no_bare_value_errors_in_library():
    # Every error raised on purpose derives from PeriodkitError (errors.py); an
    # argument error is InvalidInput, which is also a ValueError.
    assert raise_sites("ValueError") == []


def test_quadrature_gives_up_in_one_place():
    # One refinement loop serves every integral; a second loop would bring a
    # second level cap and a second raise.
    sites = raise_sites("QuadratureNoConvergence")
    assert len(sites) == 1 and sites[0].startswith("complex_periods.py:"), sites


def test_fields_are_stored_only_through_frozen():
    # A record is a tuple of its fields.  A validating __new__ stores them with
    # tuple.__new__(cls, (...)), one value per name of its class's _fields, the
    # one storing path besides the constructor a plain record takes from the
    # namedtuple of its fields (Frozen.__init_subclass__); object.__new__ and
    # object.__setattr__ appear nowhere.
    def stores(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "tuple.__new__"

    def one_value_per_field(call, fields):
        if len(call.args) != 2 or call.keywords or ast.unparse(call.args[0]) != "cls":
            return False
        return isinstance(call.args[1], ast.Tuple) and [len(call.args[1].elts)] == list(map(len, fields))

    sources = sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py"))
    assert sources
    found, checked = [], 0
    for path in sources:
        if path.name == "_frozen.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        good = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                fields = [
                    ast.literal_eval(stmt.value)
                    for stmt in cls.body
                    if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["_fields"]
                ]
                good |= {call for call in ast.walk(cls) if stores(call) and one_value_per_field(call, fields)}
        checked += len(good)
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (stores(node) and node not in good)
            or (isinstance(node, ast.Attribute) and ast.unparse(node) in ("object.__new__", "object.__setattr__"))
        ]
    assert found == []
    assert checked >= 9  # the validating types, and CyclotomicNumber's two


def imported(name_ok):
    """file:line and top-level name of every import in the library whose name
    name_ok refuses; a relative import (level > 0) is named periodkit."""

    def top_names(node):
        if isinstance(node, ast.Import):
            return [alias.name.split(".")[0] for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return ["periodkit"] if node.level else [node.module.split(".")[0]]
        return []

    sources = sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py"))
    assert sources
    return [
        f"{path.name}:{node.lineno} {name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in top_names(node)
        if not name_ok(name)
    ]


def test_library_imports_only_the_standard_library():
    # No runtime dependency; a relative import stays inside periodkit.
    assert imported(lambda name: name in sys.stdlib_module_names or name == "periodkit") == []


def test_library_imports_neither_future_nor_typing():
    # Annotations evaluate natively (int | None, collections.abc generics), so
    # no cold call pays for importing __future__ or typing.
    assert imported(lambda name: name not in ("__future__", "typing")) == []


def test_library_imports_neither_argparse_nor_gettext_nor_locale():
    # The CLI reads argv from its command table: argparse, and the gettext and
    # locale its messages load, were the largest stdlib cost of a cold call.
    assert imported(lambda name: name not in ("argparse", "gettext", "locale")) == []


def test_only_two_functions_defer_a_library_import():
    # A module imports the library modules it uses at its top.  Two functions
    # defer theirs, each run once per command: a_p_from_jacobi, so that count
    # and zeta never load characters, and correspondence_table, so that the
    # Gamma-ratio commands never load the finite side.  Any other import in a
    # function body, such as a cached loader of a module, is a new edge.
    def library(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or node.module.split(".")[0] == "periodkit"
        return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "periodkit" for a in node.names)

    sources = sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py"))
    assert sources
    owner = {}  # import node -> its innermost function; ast.walk visits an outer function first
    for path in sources:
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, f"{path.stem}.{func.name}") for node in ast.walk(func) if library(node))
    assert set(owner.values()) == {"curve_counts.a_p_from_jacobi", "amplitudes.correspondence_table"}


def test_plain_records_inherit_the_constructor():
    # A Frozen subclass whose __new__ only stores each parameter, in field
    # order and with no default, repeats the constructor Frozen.__init_subclass__
    # gives it from the namedtuple of its _fields: it should declare them and
    # define no __new__ instead.
    def only_stores(cls, new):
        args = new.args
        if args.defaults or args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
            return False
        params = [arg.arg for arg in args.args[1:]]
        fields = [
            list(ast.literal_eval(stmt.value))
            for stmt in cls.body
            if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["_fields"]
        ]
        docstring = isinstance(new.body[0], ast.Expr) and isinstance(new.body[0].value, ast.Constant)
        body = [ast.unparse(stmt) for stmt in new.body[docstring:]]
        values = ast.unparse(ast.Tuple([ast.Name(param) for param in params]))
        return fields == [params] and body == [f"return tuple.__new__(cls, {values})"]

    sources = sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{cls.lineno} {cls.name}"
        for path in sources
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef) and "Frozen" in [ast.unparse(base) for base in cls.bases]
        for new in cls.body
        if isinstance(new, ast.FunctionDef) and new.name == "__new__" and only_stores(cls, new)
    ]
    assert found == []


def test_operators_are_defined_once():
    # The exact value types take their operators from the bases in _frozen.py
    # and supply only primitives, so the coercion rule is not copied per type.
    # The product of characters is a group law that lifts no int: not a copy.
    protocol = ["_coerce", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__"]
    bases = ("RingElement", "Residue")

    def defined(cls):
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield stmt.name
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                yield from (target.id for target in targets if isinstance(target, ast.Name))

    sources = sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py"))
    assert sources
    found = [
        (cls.name, name)
        for path in sources
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        for name in defined(cls)
        if name in protocol
    ]
    assert sorted(name for cls, name in found if cls in bases) == sorted(protocol)
    # Frozen refuses + and * on every record, a rule and no coercion.
    refused = [("Frozen", name) for name in ("__add__", "__radd__", "__mul__", "__rmul__")]
    assert [(cls, name) for cls, name in found if cls not in bases] == refused + [("MultiplicativeCharacter", "__mul__")]


def scoped_nodes(tree):
    """Each node of tree with the dotted name of the classes and functions around it."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def test_max_table_prime_is_the_only_cost_constant():
    # The table budget bounds the kernels of characters.py alone, and each of
    # them takes its p from a character, so the character admits p where it is
    # built; a point count builds no table, so a copy in another module would
    # refuse work that the budget does not model.  It is the library's one
    # cost rule: the ring answers every order up to MAX_RING_ORDER, the range
    # of m, so no module states a step budget or names a check of one.
    sources = sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py"))
    assert sources
    assigned, table = [], []
    for path in sources:
        text = path.read_text()
        assert "MAX_REDUCTION_STEPS" not in text and "_check_reduction" not in text, path.name
        for node, scope in scoped_nodes(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [f"{path.name} {ast.unparse(t)}" for t in targets
                             if ast.unparse(t) == "MAX_TABLE_PRIME" or re.search("STEPS|BUDGET", ast.unparse(t))]
            elif isinstance(node, ast.Compare) and "MAX_TABLE_PRIME" in ast.unparse(node):
                table.append(f"{path.name} {scope}")
    assert assigned == ["characters.py MAX_TABLE_PRIME"], assigned
    assert table == ["characters.py MultiplicativeCharacter.__new__"], table


def test_prime_rule_runs_where_a_value_enters():
    # The prime rule runs in the four constructors that take a bare p, and in
    # the two entries that must refuse a prime before their character does:
    # quartic_character (p = 1 mod 4 comes before the table rule) and the
    # report (its desk scale comes before it).  Every other value over F_p,
    # Z_p or a character carries a p that its operand checked.
    sources = sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py"))
    assert sources
    sites = sorted(
        f"{path.name} {scope}"
        for path in sources
        for node, scope in scoped_nodes(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_check_prime"
    )
    assert sites == [
        "amplitudes.py correspondence_table",
        "characters.py MultiplicativeCharacter.__new__",
        "characters.py quartic_character",
        "curve_counts.py WeierstrassCurveFp.__new__",
        "finite_field.py PrimeFieldElem.__new__",
        "padic.py PadicInt.__new__",
    ], sites


def modulus_fields(parent: ast.AST) -> set[int]:
    """The fields of a `_modulus` entry that its call's parent node reads: a constant
    index, the names of a tuple target not spelled `_`, or all six for any other use."""
    if isinstance(parent, ast.Subscript) and isinstance(parent.slice, ast.Constant):
        return {parent.slice.value}
    if isinstance(parent, ast.Assign) and isinstance(parent.targets[0], ast.Tuple):
        return {i for i, target in enumerate(parent.targets[0].elts) if ast.unparse(target) != "_"}
    return set(range(6))


def test_phi_m_is_built_and_read_in_the_ring_alone():
    # Phi_m's layout is decided in cyclotomic._modulus: it alone factors m in
    # the ring and lists the binomials (x^d - sign)^mu whose product is Phi_m,
    # and no code of the library builds Phi_m on its way (cyclotomic_polynomial
    # has no caller).  Only the one reduction, the packed columns and
    # cyclotomic_polynomial read the entry's fields 4 and 5, the growth bound
    # and the binomials; every other reader takes the sizes phi, h, sign or lo.
    builds, factors, reads = set(), set(), set()
    for path in sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node, scope in scoped_nodes(tree):
            if not isinstance(node, ast.Call):
                continue
            if ast.unparse(node.func) == "cyclotomic_polynomial":
                builds.add(f"{path.name} {scope}")
            elif ast.unparse(node.func) == "_prime_factors" and path.name == "cyclotomic.py":
                factors.add(scope)
            elif ast.unparse(node.func) == "_modulus" and modulus_fields(parents[node]) & {4, 5}:
                reads.add(f"{path.name} {scope}")
    assert builds == set(), builds
    assert factors == {"_modulus"}, factors
    assert reads == {"cyclotomic.py _reduce", "cyclotomic.py _galois_columns", "cyclotomic.py cyclotomic_polynomial"}, reads


# Every cache of the library with its maxsize: one prime's dlog table, one ring
# order's modulus, and the two level tables, unbounded as their keys are the
# levels, below _LEVELS.
CACHES = {
    "characters._dlog_table": 1,
    "cyclotomic._modulus": 1,
    "complex_periods._midpoint_level": None,
    "complex_periods._tanh_sinh_level": None,
    "complex_periods._lattice": "global _LAST",  # the last curve read and its lattice
}


def rebound_globals(function: ast.FunctionDef) -> list[str]:
    """The module names that function rebinds with `global`, not counting those of the functions it defines."""
    names, todo = [], list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Global):
            names += node.names
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo += ast.iter_child_nodes(node)
    return names


def test_every_cache_is_bounded():
    # An unbounded cache keyed by a caller's argument keeps one entry per
    # distinct value for the life of the process, and a cache nobody hits
    # keeps its entries for nothing; README names the same caches.  State
    # kept outside functools is module state that a function rebinds with
    # `global`, found in the source and keyed by that function.
    sources = sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py"))
    assert sources
    caches = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (names := rebound_globals(node)):
                caches[f"{path.stem}.{node.name}"] = "global " + ", ".join(names)
        if path.stem in ("__init__", "__main__"):  # the package holds no cache; __main__ runs the CLI
            continue
        module = importlib.import_module(f"periodkit.{path.stem}")
        for value in vars(module).values():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                caches[f"{path.stem}.{value.__name__}"] = value.cache_parameters()["maxsize"]
    assert caches == CACHES
    kept = "what the library keeps between calls"
    rows = [line for line in (ROOT / "README.md").read_text().splitlines() if line.startswith("| ") and kept in line]
    assert len(rows) == 1, rows
    rule = re.split(r"(?<!\\)\|", rows[0])[2]
    assert set(re.findall(r"`(\w+\.\w+)`", rule)) == set(CACHES)


SITE_MODULES = {"periodkit", *(path.stem for path in (ROOT / "src" / "periodkit").glob("*.py"))}
TIME = re.compile(r"\u2248|\d\s*(?:ms|\u00b5s|s)\b")  # an approximation sign, or a number of seconds


def defined_tests() -> set[str]:
    """The name of every test function under tests/."""
    return {
        node.name
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }


def is_site(name: str) -> bool:
    """Whether name, `module.attr...`, is an object of a periodkit module or of the package."""
    module, *attrs = name.split(".")
    if module not in SITE_MODULES or not attrs:
        return False
    obj = importlib.import_module(module if module == "periodkit" else f"periodkit.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj is not None


def readme_problems(text: str) -> list[str]:
    """What README may not hold: a contract row without one site and one test,
    a backticked test, `module.name` or `BENCH_*.json` that does not exist, or
    a quoted time."""
    tests, problems = defined_tests(), []
    contract = text.split("\n## Contract\n")[1].split("\n## ")[0]
    rows = [line for line in contract.splitlines() if line.startswith("| ")][2:]  # past the header and its rule
    assert rows, "no contract rows"
    for row in rows:
        site, test = (["", ""] + [cell.strip() for cell in re.split(r"(?<!\\)\|", row)[1:-1]])[-2:]
        if not (re.fullmatch(r"`[\w.]+`", site) and is_site(site[1:-1])):
            problems.append(f"no site: {row}")
        if not (re.fullmatch(r"`test_\w+`", test) and test[1:-1] in tests):
            problems.append(f"no test: {row}")
    for name in re.findall(r"`([^`\s]+)`", text):
        if name.startswith("test_") and name not in tests:
            problems.append(f"no such test: {name}")
        if re.fullmatch(r"\w+(\.\w+)+", name) and name.split(".")[0] in SITE_MODULES and not is_site(name):
            problems.append(f"no such site: {name}")
        if re.fullmatch(r"BENCH_\d+\.json", name) and not (ROOT / name).is_file():
            problems.append(f"no such record: {name}")
    return problems + [f"a time: {line}" for line in text.splitlines() if TIME.search(line)]


def test_readme_names_a_site_and_a_test_for_every_rule_and_quotes_no_time():
    # README is the contract: each rule is stated once, beside the code that
    # enforces it and the test that pins it; times live in BENCH_*.json and CHANGES.md.
    assert readme_problems((ROOT / "README.md").read_text()) == []


BROKEN_READMES = {
    "missing-test": ("`test_golden_byte_equality`", "`test_golden_bytes_are_equal`"),
    "missing-site": ("`cli._quote` |", "`cli._escape` |"),
    "row-without-test": (" | `test_json_envelope_roundtrip` |", " | |"),
    "row-without-site": ("| `cli.render_json` |", "| |"),
    "seconds": ("with 15 significant digits.", "with 15 significant digits in 0.08 s."),
    "milliseconds": ("with 15 significant digits.", "with 15 significant digits in 80ms."),
    "approximately": ("with 15 significant digits.", "with 15 significant digits in \u22480.1."),
}


@pytest.mark.parametrize("old,new", BROKEN_READMES.values(), ids=BROKEN_READMES)
def test_readme_guard_refuses_a_broken_contract(old, new):
    text = (ROOT / "README.md").read_text()
    assert old in text
    assert readme_problems(text.replace(old, new, 1))
