"""Guards on the layout the benchmark and the dependency policy rely on."""

import ast
import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import biquadric.cli  # noqa: F401  (imports every module the tracer looks in)
from biquadric.bipoly import FrameChange, act, parse
from biquadric.classifier import Flag, normalize_frame
from biquadric.cli import frame_from_json
from conftest import FIXTURES

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_finds_every_layer():
    # The tracer raises LookupError for a traced function that was renamed or
    # moved, so such a change fails here and not only in the benchmark.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # The tracer looks sympy.factor_list up in sys.modules.  The benchmark
    # has imported sympy by then only if one of each workload's three warm-up
    # operations factors a polynomial over Q; a change that stops that (for
    # one seed) needs the tracer fix of ROADMAP item 1 first.
    import sympy  # noqa: F401
    tracing.Tracer()


def test_cli_import_leaves_sympy_out():
    # sympy is imported on first use, so commands that never factor do not
    # pay its import time.
    code = "import sys, biquadric.cli; sys.exit('sympy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], cwd=ROOT / "src").returncode == 0


def _imports_sympy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "sympy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy"


def test_only_scalars_imports_sympy():
    importers = {path.name for path in (ROOT / "src" / "biquadric").glob("*.py")
                 if any(map(_imports_sympy, ast.walk(ast.parse(path.read_text()))))}
    assert importers == {"scalars.py"}


def test_sympy_only_factors_over_q():
    # sympy factors univariate polynomials over Q and does nothing else: one
    # function imports it, and src/ names nothing else of sympy's.
    everywhere, in_functions, names = 0, [], set()
    for path in sorted((ROOT / "src" / "biquadric").glob("*.py")):
        tree = ast.parse(path.read_text())
        everywhere += sum(map(_imports_sympy, ast.walk(tree)))
        in_functions += [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                         for node in ast.walk(func) if _imports_sympy(node)]
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id == "sympy"}
    assert everywhere == 1 and in_functions == ["_to_sympy"]
    assert names <= {"Poly", "Symbol"}


def test_every_src_definition_has_a_caller():
    # A module-level function or class that nothing in src/ refers to outside
    # its own body is test-only API; the acceptance suite's imports are the
    # one named exception.
    exempt = set()
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("biquadric"):
            exempt.update(alias.name for alias in node.names)
    definitions, references = [], []
    for path in sorted((ROOT / "src" / "biquadric").glob("*.py")):
        tree = ast.parse(path.read_text())
        definitions += [(path.name, node) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((path.name, node.attr, node.lineno))
    unused = [
        f"{module}:{node.name}" for module, node in definitions
        if node.name not in exempt and not any(
            name == node.name and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, name, line in references
        )
    ]
    assert unused == []


def test_every_src_import_is_used():
    # A name a module imports at its top level and never refers to is dead
    # weight that hides which modules really depend on which.
    unused = []
    for path in sorted((ROOT / "src" / "biquadric").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{name}" for name in imported if name not in used]
    assert unused == []


def _callers(tree, names):
    """For each name, the dotted names of the functions (or classes) whose own
    bodies call it; a call outside any definition counts as '<module>'."""
    found = {name: set() for name in names}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and child.func.id in found:
                found[child.func.id].add(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return found


def test_classifier_builds_every_certificate_frame_in_one_place():
    # Each clause names its witness as a Flag, and normalize_frame alone turns
    # a flag into a frame; the random search draws its own frames, and act
    # runs only to verify a certificate.
    tree = ast.parse((ROOT / "src" / "biquadric" / "classifier.py").read_text())
    callers = _callers(tree, ("FrameChange", "act", "point_frame"))
    assert callers["FrameChange"] == {"normalize_frame", "random_destabilize_search"}
    assert callers["act"] == {"Certificate.verify"}
    assert callers["point_frame"] <= {"normalize_frame"}


def test_only_singular_locus_output_labels_a_point():
    # A verdict reads a point's cone rank (SingularPointRecord.is_a1); an A_n
    # label is computed only where the singular-locus command prints it.
    callers = set()
    for path in sorted((ROOT / "src" / "biquadric").glob("*.py")):
        callers |= _callers(ast.parse(path.read_text()), ("classify_local",))["classify_local"]
    assert callers == {"_cmd_singular_locus"}


def test_only_corank_two_germs_reach_the_local_algebra():
    # A corank-1 germ's type comes from the splitting lemma; the truncated
    # local algebra runs in classify_local only after the rank-3 and rank-2
    # cases have returned.
    callers = set()
    for path in sorted((ROOT / "src" / "biquadric").glob("*.py")):
        callers |= _callers(ast.parse(path.read_text()), ("local_algebra_dim",))["local_algebra_dim"]
    assert callers == {"classify_local"}
    tree = ast.parse((ROOT / "src" / "biquadric" / "singularity.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "classify_local").body
    first_call = next(i for i, stmt in enumerate(body) if any(
        isinstance(n, ast.Call) and getattr(n.func, "id", None) == "local_algebra_dim"
        for n in ast.walk(stmt)))
    returned = {ast.unparse(stmt.test) for stmt in body[:first_call]
                if isinstance(stmt, ast.If) and isinstance(stmt.body[-1], ast.Return)}
    assert {"rank == 3", "rank == 2"} <= returned


def test_ranks_kernels_and_scalar_multiples_do_not_divide():
    # Rank and kernel come from cross and dot products, and is_scalar_multiple
    # cross-multiplies, so integer input stays in ints there.
    callers = set()
    for path in sorted((ROOT / "src" / "biquadric").glob("*.py")):
        callers |= _callers(ast.parse(path.read_text()), ("scalar_inv",))["scalar_inv"]
    assert "normalize_projective" in callers
    assert not callers & {"matrix_kernel", "matrix_rank", "is_scalar_multiple"}


# Division sites in src/, as (module, enclosing function, source text).  Every
# true division of two scalars is exact, through scalar_inv or Fraction(n, d):
# "/" on two ints gives a float, so a "/" is allowed only with a Fraction(...)
# operand and at a site pinned here.  src/ has none.
DIVISION_SITES = set()


def _divisions(tree):
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append((scope, child))
            visit(child, scope)

    visit(tree, "")
    return found


def _is_fraction_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction"


def test_every_division_is_pinned_and_exact():
    sites, inexact = set(), []
    for path in sorted((ROOT / "src" / "biquadric").glob("*.py")):
        for scope, node in _divisions(ast.parse(path.read_text())):
            sites.add((path.name, scope, ast.unparse(node)))
            operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            if not any(map(_is_fraction_call, operands)):
                inexact.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert inexact == []
    assert sites == DIVISION_SITES


def test_division_scan_sees_a_division():
    # the scan itself finds "/" inside methods and nested functions
    tree = ast.parse("class A:\n    def f(self, a, b):\n        def g():\n            return a / b\n"
                     "        a /= Fraction(1, 2)\n")
    assert [(scope, ast.unparse(n)) for scope, n in _divisions(tree)] == [
        ("A.f.g", "a / b"), ("A.f", "a /= Fraction(1, 2)")]


def test_integer_text_parses_to_ints():
    texts = list(FIXTURES.values()) + [
        "2x0^2*y0^2 - 3*x0*x1*(y1 - 2*y2)^2 + (x0 - x1)^2*(y0*y1 + 7*y2^2)",
        "-(x0*y0 + x1*y1)^2 + 4/2*x0^2*y2^2",
    ]
    for text in texts:
        assert {type(c) for c in parse(text).terms.values()} == {int}, text


def _rational_entries_are_canonical(rows) -> bool:
    # an integral rational is an int, and a Fraction only when it is not
    return all(type(c) is int or type(c) is Fraction and c.denominator != 1
               for row in rows for c in row)


def test_integer_frames_hold_ints():
    f = parse("x0^2*y0^2 + x1^2*y1*y2")
    frames = [
        FrameChange.identity(),
        normalize_frame(f, Flag(((0, 1),), (1, 0, 0), (0, 0, 1))),
        normalize_frame(f, Flag(((3, 2),), (0, 2, 0))),
        frame_from_json({"g2": [["1", "0"], ["0", "4/2"]],
                         "g3": [["4/2", "0", "0"], ["0", "1", "0"], ["1", "0", "1"]]}),
    ]
    for frame in frames:
        assert _rational_entries_are_canonical(frame.g2 + frame.g3), frame
    moved = act(FrameChange(((2, 1), (1, 1)), ((1, 2, 0), (0, 1, 3), (1, 0, 1))),
                parse(FIXTURES["cone_point"]))
    assert {type(c) for c in moved.terms.values()} == {int}


def test_rational_literal_parses_to_a_fraction():
    f = parse("1/2*x0^2*y0^2 + 3*x1^2*y1^2 - x0*x1*(2/3*y0 + y1)*y2")
    assert type(f.coefficient((2, 0, 2, 0, 0))) is Fraction
    assert f.coefficient((1, 1, 1, 0, 1)) == Fraction(-2, 3)
    assert type(f.coefficient((0, 2, 0, 2, 0))) is int
    assert type(f.coefficient((1, 1, 0, 1, 1))) is int
