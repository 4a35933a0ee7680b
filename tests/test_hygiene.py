"""Source hygiene of the qhopf package, checked with the standard library
only: no module imports a name it never uses, no function takes a
parameter or assigns a local it never uses, nothing is defined that no
code references, and only fields.py knows how scalars are represented."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qhopf"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) for each name bound by an import in source and never
    referenced. __future__ imports are exempt; a quoted annotation counts
    as a reference to the names it contains."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value))
                            if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "from typing import Dict, Optional\n"
              "def f(x: 'Optional[int]') -> Dict:\n"
              "    return {}\n")
    assert unused_imports(source) == [(2, "json")]


def _only_raises_not_implemented(fn) -> bool:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and \
            isinstance(body[0].value, ast.Constant) and \
            isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unused_parameters(source: str):
    """(line, function, parameter) for each parameter of a def that its
    body never references. The receiver of a method (its first parameter,
    unless it is a staticmethod) is exempt, and so are bodies that only
    raise NotImplementedError."""
    tree = ast.parse(source)
    receivers = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    fn.args.args and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in fn.decorator_list):
                receivers.add(fn.args.args[0])
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or \
                _only_raises_not_implemented(fn):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + \
            [p for p in (a.vararg, a.kwarg) if p is not None]
        used = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        found.extend((fn.lineno, fn.name, p.arg) for p in params
                     if p not in receivers and p.arg not in used)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_unused_parameter_is_caught():
    source = ("class K:\n"
              "    def zero(self):\n"
              "        return 0\n"
              "    def abstract(self, x):\n"
              "        \"\"\"Docstring.\"\"\"\n"
              "        raise NotImplementedError\n"
              "    @staticmethod\n"
              "    def s(a, b):\n"
              "        return b\n"
              "def f(x, n, *args, **kw):\n"
              "    def g(y):\n"
              "        return x\n"
              "    return g(kw)\n")
    assert unused_parameters(source) == [(8, "s", "a"), (10, "f", "args"),
                                         (10, "f", "n"), (11, "g", "y")]


def _own_nodes(fn):
    """The nodes of fn's body, without descending into the bodies of the
    functions, lambdas and classes nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str):
    """(line, function, name) for each name a function assigns that
    neither it nor the functions nested in it ever read or delete. Names
    that start with an underscore are exempt, and so are names the
    function declares global or nonlocal."""
    tree = ast.parse(source)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_nodes(fn))
        declared = {name for node in own
                    if isinstance(node, (ast.Global, ast.Nonlocal))
                    for name in node.names}
        stored = {}
        for node in own:
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store) and \
                    not node.id.startswith("_") and node.id not in declared:
                stored.setdefault(node.id, node.lineno)
        loaded = {n.id for stmt in fn.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and
                  not isinstance(n.ctx, ast.Store)}
        found.extend((line, fn.name, name) for name, line in stored.items()
                     if name not in loaded)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


def test_unused_local_is_caught():
    source = ("def f(xs):\n"
              "    dead = len(xs)\n"
              "    kept = 2\n"
              "    _skip = 3\n"
              "    gone = 4\n"
              "    del gone\n"
              "    total = 0\n"
              "    for (a, b), c in xs:\n"
              "        total = total + a * c\n"
              "    def g():\n"
              "        inner = 1\n"
              "        return kept\n"
              "    def h():\n"
              "        nonlocal total\n"
              "        total = 4\n"
              "    return g, h, total, [0 for i in xs]\n")
    assert unused_locals(source) == [(2, "f", "dead"), (8, "f", "b"),
                                     (11, "g", "inner"), (16, "f", "i")]


ROOT = SRC.parent.parent
CALLERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")) + \
    sorted((ROOT / "bench").glob("*.py"))


def exported_names(init_source: str):
    """Names that the package __init__ imports from its modules."""
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(init_source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _references(node, used, enclosing=frozenset()):
    """Add to used each name that node references as a Name or an
    Attribute, except inside a function of that name: a method that only
    forwards to its namesake, or a function that only calls itself, is
    not a caller."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = enclosing | {node.name}
    name = node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None
    if name is not None and name not in enclosing:
        used.add(name)
    for child in ast.iter_child_nodes(node):
        _references(child, used, enclosing)


def unreferenced_definitions(definers, callers, exported):
    """(file name, line, name) for each def or class in the definer
    sources whose name no caller source references as a Name or an
    Attribute (_references), unless it is exported. Dunder methods are
    exempt: Python calls them by protocol."""
    used = set()
    for source in callers:
        _references(ast.parse(source), used)
    found = []
    for fname, source in definers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and \
                    not (node.name.startswith("__") and
                         node.name.endswith("__")) and \
                    node.name not in used and node.name not in exported:
                found.append((fname, node.lineno, node.name))
    return sorted(found)


def test_no_unreferenced_definitions():
    definers = [(p.name, p.read_text(encoding="utf-8")) for p in MODULES]
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    exported = exported_names((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert unreferenced_definitions(definers, callers, exported) == []


def test_unreferenced_definition_is_caught():
    definers = [("m.py", "class K:\n"
                         "    def __eq__(self, o):\n"
                         "        return True\n"
                         "    def used(self):\n"
                         "        return 1\n"
                         "    def dead(self):\n"
                         "        return 2\n"
                         "def api():\n"
                         "    return K().used()\n"
                         "def helper():\n"
                         "    return 0\n"
                         "class Base:\n"
                         "    def relay(self):\n"
                         "        return 3\n"
                         "class Both(Base):\n"
                         "    def relay(self):\n"
                         "        return self.left.relay()\n"
                         "def loop(n):\n"
                         "    return loop(n - 1) if n else api()\n")]
    callers = [definers[0][1], "from m import helper\nhelper\nBoth\n"]
    assert unreferenced_definitions(definers, callers, {"api"}) == \
        [("m.py", 6, "dead"), ("m.py", 13, "relay"), ("m.py", 16, "relay"),
         ("m.py", 18, "loop")]


SCALAR_NAMES = ("Fraction", "Fp")


def scalar_representation_uses(source: str, exempt_from=None):
    """(line, what) for each import of fractions and each use of the
    names Fraction and Fp, as a name, an attribute or an imported name.
    An import from the module exempt_from (as written in the source, say
    ".fields") is allowed to name them: that is the package's export."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module == "fractions":
                found.append((node.lineno, module))
            elif module != exempt_from:
                found += [(node.lineno, alias.name) for alias in node.names
                          if alias.name in SCALAR_NAMES]
        elif isinstance(node, ast.Name) and node.id in SCALAR_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in SCALAR_NAMES:
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "fields.py"],
    ids=lambda p: p.name)
def test_scalar_representation_stays_in_fields(path):
    exempt = ".fields" if path.name == "__init__.py" else None
    assert scalar_representation_uses(path.read_text(encoding="utf-8"),
                                      exempt) == []


def test_scalar_representation_use_is_caught():
    source = ("from fractions import Fraction\n"
              "import fractions\n"
              "from .fields import Fp, QQ\n"
              "from . import fields\n"
              "x = Fraction(1, 2)\n"
              "y = fields.Fp(1, 7)\n")
    assert scalar_representation_uses(source) == [
        (1, "fractions"), (2, "fractions"), (3, "Fp"), (5, "Fraction"),
        (6, "Fp")]
    assert scalar_representation_uses(
        "from .fields import Field, Fp, QQ\n", ".fields") == []


def named_calls(source: str, name: str) -> int:
    """The number of calls of a method or function called name in
    source; a def of that name is not a call."""
    return sum(isinstance(node, ast.Call) and
               getattr(node.func, "attr", getattr(node.func, "id", None))
               == name
               for node in ast.walk(ast.parse(source)))


def retired_sites(source: str, name: str) -> int:
    """The calls of name (named_calls) in source, and the defs and
    classes named name, the imports of name and the classes derived from
    it."""
    tree = ast.parse(source)
    return named_calls(source, name) + sum(
        isinstance(node, (ast.FunctionDef, ast.ClassDef)) and
        node.name == name or
        isinstance(node, ast.alias) and node.name == name
        for node in ast.walk(tree)) + sum(
        getattr(base, "id", getattr(base, "attr", None)) == name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for base in node.bases)


# check_quantified, a per-input callback of VerificationReport, fell
# from 48 call sites to 11 as the axioms became tables (side-builders of
# algebra.py, sandwich, LinearMap.compose, sweedler). The last 11 went
# when q2 and ma3 came to compare two maps built from graphs, q5, q6 and
# mbia2 two tables joined by quasihopf._both, bmc3 two scalar tables on
# (h, c), and the mu-inv and nu-* checks of products.py the families of
# all their basis inputs at once. check_equal (48 calls, each comparing
# two tensors) and its first_difference went with it: check_same reads
# a tensor as a table with no inputs (algebra.as_table). No module of
# the package defines or calls any of the three; VerificationReport
# compares only through check_same and check_bool. Their bodies are the
# test-side helpers of the references (reference_builders.py).
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_quantified_calls_do_not_grow(path):
    source = path.read_text(encoding="utf-8")
    assert {name: retired_sites(source, name) for name in (
        "check_quantified", "check_equal", "first_difference")} == {
        "check_quantified": 0, "check_equal": 0, "first_difference": 0}


def test_quantified_call_is_counted():
    source = ("def check(rep, n):\n"
              "    rep.check_quantified('a', range(n), f)\n"
              "    check_quantified('b', range(n), f)\n"
              "    rep.check_same('c', x, y)\n"
              "    rep.check_equal('d', x, first_difference(x, y))\n"
              "def check_quantified(tag, inputs, fn):\n"
              "    return None\n")
    assert named_calls(source, "check_quantified") == 2
    assert retired_sites(source, "check_quantified") == 3
    assert retired_sites(source, "check_equal") == 1
    assert retired_sites(source, "first_difference") == 1


# from_function (LegMul.from_function and LinearMap.from_function, a
# builder called once per table entry or column) fell to 4 call sites
# as the module functors came to restrict whole tables and the
# coactions became sandwiches, composites and sweedler sums. The
# last 4 went when each of transport_module's actions became one
# sweedler sum over graphs (LegMul.from_graph), HomSmash.unit the graph
# of eps tensored with 1_A and HomSmash.act v composed with right
# multiplication by h. No module of the package defines or calls
# from_function; its bodies are test-side helpers too.
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_from_function_calls_do_not_grow(path):
    assert retired_sites(path.read_text(encoding="utf-8"),
                         "from_function") == 0


def test_from_function_call_is_counted():
    source = ("class LegMul:\n"
              "    @classmethod\n"
              "    def from_function(cls, left, right, out, fn):\n"
              "        return cls()\n"
              "def build(H, M):\n"
              "    left = LegMul.from_function(H, M, M, f)\n"
              "    col = LinearMap.from_function(M, (M, H), g)\n"
              "    return left, col, from_function\n")
    assert named_calls(source, "from_function") == 2
    assert retired_sites(source, "from_function") == 3


# assemble (QuasiBialgebra.assemble, a sum of one builder result per term
# of a source tensor): quasihopf.py (49 call sites) and coact.py (12)
# fell to 0 as q5, q6, twist's alpha_F and beta_F, p~, q~, every
# derived element and every Sweedler sum of the core and tilde
# identities and of mbia2 became one sum over lifted tables
# (algebra.sweedler). The last 14, in hopfmod.py (8), doihopf.py (4) and
# products.py (2), each wrote two output legs into one flattened basis;
# they went when a row-major pairing (algebra.flat_pairing) became a
# sweedler term, and the method was deleted. Its body is the test-side
# helper of the references (reference_builders.assemble). No module of
# the package defines or calls assemble: a new Sweedler sum contracts
# lifted tables through sweedler.
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_assemble_calls_do_not_grow(path):
    assert retired_sites(path.read_text(encoding="utf-8"), "assemble") == 0


def test_assemble_call_is_counted():
    source = ("class QuasiBialgebra:\n"
              "    def assemble(self, source, builder):\n"
              "        return builder(0)\n"
              "def q5(H, d):\n"
              "    a = H.assemble(d, lambda a, b: H.mul(H.e(a), H.e(b)))\n"
              "    return a, assemble(d, f), H.assemble\n")
    assert named_calls(source, "assemble") == 2
    assert retired_sites(source, "assemble") == 3


# _two_sided_hits (algebra.py), the table of the functionals
# u -> e^s <- v of a left and a right action on one space, was
# regrouped by hand through FlatSpace.join in three ways: by the flat
# pair (u, v) for mbia1 and hhop_module_coalgebra, and by (u, s, v) for
# two_sided_crossed and crossed_smash_direct. It went when H's
# two-sided hits became one table (DualView.hits) and C's the action of
# H (x) H^op on C* (dual_module_algebra of hhop_module_coalgebra), each
# one sweedler sum that writes the flat index of u (x) v through
# flat_pairing. Its body is the test-side helper of the references
# (reference_builders.two_sided_hits).
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_two_sided_hits_retired(path):
    assert retired_sites(path.read_text(encoding="utf-8"),
                         "_two_sided_hits") == 0


# FlatSpace (tensor.py) wrote the row-major rule a second time, as
# split and join arithmetic next to flat_pairing's table, and
# smash_index read (A # H*) # H through it. Five modules called them by
# hand: invert_in_tensor_algebra, doi_from_algebra_module,
# crossed_smash_direct, the join lambdas of the forward functors and
# verify_heisenberg_double and verify_hom_smash. They went when every
# flat index came to be written by flat_pairing or read from a
# ProductAlgebra's keys, both built from algebra._flat_keys, and
# ProductAlgebra stopped deriving from FlatSpace. Their bodies are the
# test-side helpers of the references (reference_builders.FlatSpace and
# smash_index). No module of the package, __init__.py included, defines,
# imports, derives from or calls either.
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_flat_space_retired(path):
    source = path.read_text(encoding="utf-8")
    assert {name: retired_sites(source, name)
            for name in ("FlatSpace", "smash_index")} == {
        "FlatSpace": 0, "smash_index": 0}


# solve_linear eliminated a second time, with its own pivot bookkeeping,
# and invert_matrix_map (linalg.py) ran it once per column of an
# inverse. Both now read their answers off one RowSpan, the package's
# only elimination (invert_linear_map adds the rows of [M | I]). The
# two-sided inverse check was written three times: in
# QuasiBialgebra.__init__, in coact._check_inverse and at the end of
# invert_in_tensor_algebra. H and every comodule algebra now call
# quasihopf.checked_inverse, and it and invert_in_tensor_algebra share
# algebra.is_inverse. No module defines, imports or calls
# invert_matrix_map or _check_inverse, and the refusal of a supplied
# inverse is worded in one place. The bodies of the per-column
# elimination are the references of tests/test_linalg.py
# (reference_builders.solve_linear, invert_matrix_map and
# invert_linear_map).
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_per_column_elimination_retired(path):
    source = path.read_text(encoding="utf-8")
    assert {name: retired_sites(source, name)
            for name in ("invert_matrix_map", "_check_inverse")} == {
        "invert_matrix_map": 0, "_check_inverse": 0}


def test_two_sided_check_is_worded_once():
    counts = {p.name: p.read_text(encoding="utf-8").count(
        "fails the two-sided check") for p in MODULES}
    assert {name: n for name, n in counts.items() if n} == {
        "quasihopf.py": 1}


def test_flat_space_site_is_caught():
    source = ("from .tensor import Basis, FlatSpace\n"
              "class FlatSpace:\n"
              "    def join(self, idx):\n"
              "        return 0\n"
              "class ProductAlgebra(FlatSpace):\n"
              "    pass\n"
              "class Nested(tensor.FlatSpace):\n"
              "    pass\n"
              "def smash_index(qs, sm):\n"
              "    return FlatSpace(qs.prod.factors, sm.field)\n"
              "def build(qs, sm):\n"
              "    nest = smash_index(qs, sm)\n"
              "    return nest.join((0, 1, 0)), FlatSpace\n")
    assert retired_sites(source, "FlatSpace") == 5
    assert retired_sites(source, "smash_index") == 2
    assert retired_sites(source, "join") == 2


def private_unreferenced(definers):
    """(file name, line, name) for each module-level def or class of
    the definer sources whose name starts with an underscore (and is not
    a dunder) and that no definer source references (_references) but
    in its own body: a private helper that only tests or no code call."""
    used = set()
    for _, source in definers:
        _references(ast.parse(source), used)
    return sorted((fname, node.lineno, node.name)
                  for fname, source in definers
                  for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and
                  node.name.startswith("_") and
                  not node.name.endswith("__") and node.name not in used)


def test_private_definitions_have_callers():
    definers = [(p.name, p.read_text(encoding="utf-8"))
                for p in sorted(SRC.glob("*.py"))]
    assert private_unreferenced(definers) == []


def test_private_unreferenced_is_caught():
    definers = [("a.py", "def _used():\n"
                         "    return 1\n"
                         "def _only_self(n):\n"
                         "    return _only_self(n - 1)\n"
                         "def _dead():\n"
                         "    return 2\n"
                         "class _Gone:\n"
                         "    def _method(self):\n"
                         "        return 3\n"
                         "def public():\n"
                         "    return 4\n"),
                ("b.py", "from .a import _used\n_used()\n")]
    assert private_unreferenced(definers) == [
        ("a.py", 3, "_only_self"), ("a.py", 5, "_dead"), ("a.py", 7, "_Gone")]


def field_zero_calls(source: str):
    """Line of each call of a method named zero, other than Tensor.zero.
    The product builders of products.py sum lifted int numerators; a
    field's zero() there would be a scalar accumulator come back."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and
                  isinstance(node.func, ast.Attribute) and
                  node.func.attr == "zero" and
                  not (isinstance(node.func.value, ast.Name) and
                       node.func.value.id == "Tensor"))


def test_products_sum_no_field_scalars():
    source = (SRC / "products.py").read_text(encoding="utf-8")
    assert field_zero_calls(source) == []


# The table builders of hopfmod.py and doihopf.py, and the Sweedler sum
# kernel of algebra.py with its planner, that sum lifted int numerators
# and lower each entry once. Other functions of these modules keep
# legitimate field scalars (BimoduleCoalgebra.eps, and
# cyclic_right_submodule, whose RowSpan works in them), so the builders
# are picked by name.
LIFTED_BUILDERS = {
    "algebra.py": ("_sweedler_plan", "sweedler"),
    "hopfmod.py": ("canonical_first_module", "_forward_action"),
    "doihopf.py": ("algebra_action_from_doi", "crossed_smash_direct"),
}


def builder_sources(source: str, names):
    """The source of each top-level function of source named in names,
    by name."""
    return {node.name: ast.get_source_segment(source, node)
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name in names}


def scalar_sum_uses(source: str):
    """(line, what) for each field zero() call (field_zero_calls) and
    each call of _clean_table in source: a lifted builder's output is
    lowered by Field.lower, which leaves zeros out, so neither has a
    place there."""
    cleans = [(node.lineno, "_clean_table")
              for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Call) and
              getattr(node.func, "id", None) == "_clean_table"]
    return sorted([(line, "zero") for line in field_zero_calls(source)] +
                  cleans)


@pytest.mark.parametrize("module", sorted(LIFTED_BUILDERS))
def test_lifted_builders_sum_no_field_scalars(module):
    names = LIFTED_BUILDERS[module]
    found = builder_sources((SRC / module).read_text(encoding="utf-8"), names)
    assert sorted(found) == sorted(names)
    assert {name: scalar_sum_uses(text) for name, text in found.items()} == \
        {name: [] for name in names}


def test_scalar_sum_in_builder_is_caught():
    source = ("def _forward_action(M, F):\n"
              "    field = M.field\n"
              "    zero = field.zero()\n"
              "    return _clean_table({0: {0: zero}})\n"
              "def cyclic_right_submodule(prod):\n"
              "    return prod.field.zero()\n")
    found = builder_sources(source, LIFTED_BUILDERS["hopfmod.py"])
    assert sorted(found) == ["_forward_action"]
    assert scalar_sum_uses(found["_forward_action"]) == [
        (3, "zero"), (4, "_clean_table")]


def test_field_zero_call_is_caught():
    source = ("def build(field, H, basis):\n"
              "    zero = field.zero()\n"
              "    acc = Tensor.zero((basis,), field)\n"
              "    return zero, acc, H.field.zero()\n")
    assert field_zero_calls(source) == [2, 4]


# A map or a pairing of a spec file was written by its own writer
# (rows_from_linmap, rows_from_legmul) and read by its own reader over a
# shared row check (_entries), each reader with its own messages, and
# three readers each turned the constructor's ValueError into a
# SpecError in a try block of their own. Maps and pairings are now
# written and read as their graphs (LinearMap.graph, LegMul.graph and
# from_graph) through rows_from_tensor and tensor_from_rows, and every
# reader builds its object through specfile._build.
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_spec_row_codecs_retired(path):
    source = path.read_text(encoding="utf-8")
    assert {name: retired_sites(source, name)
            for name in ("rows_from_linmap", "rows_from_legmul",
                         "_entries")} == {
        "rows_from_linmap": 0, "rows_from_legmul": 0, "_entries": 0}


def test_spec_refusal_is_typed_once():
    counts = {p.name: p.read_text(encoding="utf-8").count(
        "SpecError(str(exc))") for p in MODULES}
    assert {name: n for name, n in counts.items() if n} == {"specfile.py": 1}
