"""The public surface of ``import postlie``, and what ``postlie.mkw`` imports.

The export list is written out in full, so adding a name to the package or
removing one shows up as a diff of this file.  The cut Hopf algebra is the
dual the Grossman-Larson product is checked against, in the ``gl-duality``
suite of ``postlie.verify``; ``postlie.mkw`` itself imports nothing from
``postlie.grafting``.
"""

import ast
import types
from pathlib import Path

import postlie

EXPORTS = [
    "DegreeCapError", "FOREST_ONE", "ForestSyntaxError", "LinComb",
    "OrderedForest", "PlanarTree", "RegTree", "Tensor", "TruncChar",
    "as_coeff", "b_minus", "b_plus", "bck_antipode", "bck_coproduct",
    "bck_natural_growth", "bck_primitive_projection", "bracket0",
    "cache_sizes", "canonical_lift", "char_convolve", "char_from_json",
    "char_inverse", "char_to_csv", "char_to_json", "character_failures",
    "clear_caches", "coalgebra_endomorphism", "comodule_coaction",
    "compose_vectors", "concat", "concat_antipode", "counit", "deconcat",
    "deformed_graft", "deformed_mkw_coproduct", "degree_cap", "deshuffle",
    "disjointness_witness", "embed_rough_path", "enumerate_forests",
    "enumerate_reg_trees", "enumerate_trees", "enumerate_v_letters",
    "f_decompose", "f_recompose", "fold_tensor", "forest", "forests_up_to",
    "forget_planarity", "gl_antipode", "gl_exp", "gl_forests",
    "gl_inverse_product", "gl_product", "graft_forests",
    "group_like_failures", "growth_fold", "is_primitive",
    "iterated_reduced", "jacobi_bracket", "leaf", "left_graft",
    "lower_root_adjacent", "memo", "mkw_antipode", "mkw_coproduct",
    "natural_growth", "np_bminus", "np_bplus", "np_parse", "pairing",
    "parse_forest", "parse_lincomb", "parse_reg_lincomb", "parse_reg_tree",
    "parse_tensor", "phi", "phi_inverse", "phi_matrix", "phi_reg",
    "phi_reg_inverse", "plant", "primitive_basis", "primitive_projection",
    "reduced_coproduct", "reg_assoc_product", "reg_deshuffle",
    "reg_gl_product", "reg_graft", "reg_one", "reg_raise", "reg_tree",
    "render_forest", "render_lincomb", "render_reg_tree", "render_tensor",
    "rho_graft", "run_suite", "shuffle", "shuffle_words", "single",
    "suite_names", "tensor_of", "translate", "tree", "u1_rank_by_degree",
    "unembed_rough_path", "word", "x_power",
]


def test_export_list_is_pinned():
    got = sorted(name for name, value in vars(postlie).items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
    assert got == EXPORTS


def _imported(path: Path):
    """Every module, and every name of a module, that ``path`` imports."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "postlie" + ("." + base if base else "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_mkw_imports_nothing_from_grafting():
    names = set(_imported(Path(postlie.__file__).with_name("mkw.py")))
    assert "postlie.lincomb" in names  # the walk reads relative imports
    assert not any(name == "postlie.grafting"
                   or name.startswith("postlie.grafting.") for name in names)
