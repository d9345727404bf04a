"""Sparse multilevel kernel features with entropy-maximizing selection.

The library constructs compactly-supported, mutually orthogonal features of
product-form (Sturm-Liouville) kernels, offers the entropy-maximizing subset
(``entropic_select``), embeds data into sparse feature vectors, trains
ridge / logistic models on the result, and benchmarks against four
random-feature baselines.
"""

from .design import (IndexSet, entropic_select, enumerate_sparse_grid,
                     full_design, level_for_feature_count, select_design,
                     sparse_grid_size, truncate_random)
from .embedding import (SCALE_PLAIN, SCALE_SQRT, embed, embed_batch,
                        kernel_approx)
from .features import (FeatureIndex, hierarchical_surplus, phi_1d, phi_nd,
                       support_box)
from .kernels import KernelSpec, expansion_coeff, kernel_eval, norm_const

__all__ = [
    "KernelSpec", "kernel_eval", "norm_const", "expansion_coeff",
    "FeatureIndex", "phi_1d", "phi_nd", "support_box", "hierarchical_surplus",
    "IndexSet", "enumerate_sparse_grid", "entropic_select", "truncate_random",
    "sparse_grid_size", "level_for_feature_count", "full_design", "select_design",
    "embed", "embed_batch", "kernel_approx",
    "SCALE_SQRT", "SCALE_PLAIN",
]

__version__ = "0.1.0"
