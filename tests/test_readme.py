"""The README's Library block runs as written and gives the values its
comments state, so a moved or renamed public name breaks a test; and
`from kstab import *` binds the public names and no module."""

import ast
import pathlib
import types
from fractions import Fraction

from kstab import MonomialIdeal

README = pathlib.Path(__file__).parent.parent / "README.md"


def library_block():
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block():
    block = library_block()
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            expr = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(expr, namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    xy = MonomialIdeal(2, [(1, 0), (0, 1)])
    assert values == [Fraction(2, 7), "semistable_not_stable", xy, Fraction(2)]
    lines = block.splitlines()
    comments = [line.split("#", 1)[1].strip() for line in lines if "#" in line]
    assert comments == [
        "Fraction(2, 7)", '"semistable_not_stable"', "the ideal (x, y)", "Fraction(2)",
    ]


# every name `from kstab import *` bound before __all__ was written out,
# but the submodules and the since-deleted MultiPoly, det_symbolic and
# GridTooShortError
PUBLIC = {
    "CentralArrangement", "DFReport", "FlagIdealP1", "Flat", "GammaSample",
    "InconclusiveError", "InputError", "KstabError",
    "LctCertificate", "LinearForm", "MonomialIdeal",
    "NewtonPolyhedron", "PointDivisor", "SampleGrid", "SizeError",
    "SummationResult", "TildeFamily", "UniPoly", "Verdict",
    "WeightedIdealProduct", "braid_arrangement", "classify",
    "diagonal_discrepancy", "donaldson_futaki", "gamma_at_k", "gamma_report",
    "intersection_lattice", "law_checks", "lct_braid", "lct_central",
    "lct_monomial", "multiplier_ideal", "newton_polyhedron", "rat", "rat_str",
    "summation_check", "tilde_divisors", "validate_flag", "vandermonde_product",
    "veronese_determinant", "weight",
}


def test_star_import_binds_no_module():
    namespace = {}
    exec("from kstab import *", namespace)
    namespace.pop("__builtins__")
    modules = [name for name, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert modules == []
    assert set(namespace) >= PUBLIC


def test_veronese_oracle_lives_in_verification():
    import kstab
    from kstab import gamma

    assert kstab.veronese_determinant.__module__ == "kstab.verification"
    assert kstab.vandermonde_product.__module__ == "kstab.verification"
    for name in ("vandermonde_product", "veronese_determinant",
                 "MAX_K_SYMBOLIC", "MAX_DET_SIZE"):
        assert not hasattr(gamma, name), name
    # C04 expands both sides as plain dicts: the polynomial algebra and
    # the general determinant it once used are gone
    for name in ("MultiPoly", "det_symbolic"):
        assert not hasattr(kstab, name), name
        assert not hasattr(kstab.verification, name), name
