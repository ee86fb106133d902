"""Exact computer algebra on decorated planar rooted forests.

The package implements the free post-Lie structure carried by planar
forests: left grafting, the Grossman-Larson product and its Hopf-algebra
dual built from left-admissible cuts, natural growth with the projection
onto primitives, the isomorphism onto the word side together with
truncated rough-path characters, grafting and translation coactions, a
nonplanar comparison layer whose forests are canonical planar forests, and
the deformed (decorated) variants driven by edge and vertex multi-indices.
All coefficients are exact: ``int`` where the maths is integral,
``Fraction`` where it divides.
"""

from .forest import (FOREST_ONE, ForestSyntaxError, OrderedForest,
                     PlanarTree, b_minus, b_plus, enumerate_forests,
                     enumerate_trees, forest, forests_up_to, leaf,
                     parse_forest, render_forest, single, tree, word)
from .lincomb import (LinComb, Tensor, as_coeff, concat, counit, deconcat,
                      deshuffle, pairing, shuffle, shuffle_words, tensor_of)
from .memo import cache_sizes, clear_caches, memo
from .grafting import (concat_antipode, gl_antipode, gl_exp, gl_forests,
                       gl_inverse_product, gl_product, graft_forests,
                       jacobi_bracket, left_graft)
from .mkw import (iterated_reduced, mkw_antipode, mkw_coproduct,
                  reduced_coproduct)
from .growth import (coalgebra_endomorphism, comodule_coaction, f_decompose,
                     f_recompose, fold_tensor, growth_fold, is_primitive,
                     natural_growth, primitive_basis, primitive_projection,
                     u1_rank_by_degree)
from .bck import (bck_antipode, bck_coproduct, bck_natural_growth,
                  bck_primitive_projection, forget_planarity, np_bminus,
                  np_bplus, np_parse)
from .characters import (TruncChar, canonical_lift, char_convolve,
                         char_from_json, char_inverse, char_to_csv,
                         char_to_json, character_failures, embed_rough_path,
                         group_like_failures, phi, phi_inverse, phi_matrix,
                         unembed_rough_path)
from .coaction import (compose_vectors, disjointness_witness, rho_graft,
                       translate)
from .regstruct import (RegTree, bracket0, deformed_graft,
                        deformed_mkw_coproduct, enumerate_reg_trees,
                        enumerate_v_letters, lower_root_adjacent,
                        parse_reg_tree, phi_reg, phi_reg_inverse, plant,
                        reg_assoc_product, reg_deshuffle, reg_gl_product,
                        reg_graft, reg_one, reg_raise, reg_tree,
                        render_reg_tree, x_power)
from .exprs import (parse_lincomb, parse_reg_lincomb, parse_tensor,
                    render_lincomb, render_tensor)
from .verify import DegreeCapError, degree_cap, run_suite, suite_names

__version__ = "0.1.0"
