"""Sparse tensor formats: COO, sCOO, HiCOO, gHiCOO, sHiCOO, CSF."""

from repro.sptensor.bcsf import BCSFTensor, VirtualRoot, bcsf_mttkrp
from repro.sptensor.coo import COOTensor, stack_entries
from repro.sptensor.convert import as_format, to_coo
from repro.sptensor.csf import CSFTensor
from repro.sptensor.dense import (
    fold,
    khatri_rao,
    khatri_rao_list,
    mttkrp_khatri_rao_operand,
    outer,
    unfold,
)
from repro.sptensor.ghicoo import GHiCOOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.sptensor.io import (
    load_csf_npz,
    load_hicoo_npz,
    load_npz,
    read_tns,
    save_csf_npz,
    save_hicoo_npz,
    save_npz,
    tns_dumps,
    write_tns,
)
from repro.sptensor.properties import (
    BlockStats,
    FiberStats,
    TensorSummary,
    block_stats,
    fiber_stats,
    mode_fill,
    nnz_per_slice,
    summarize,
)
from repro.sptensor.reorder import (
    apply_permutations,
    blocking_quality,
    degree_reorder,
    lexi_reorder,
    random_reorder,
)
from repro.sptensor.scoo import SemiCOOTensor
from repro.sptensor.shicoo import SemiHiCOOTensor

__all__ = [
    "COOTensor",
    "stack_entries",
    "HiCOOTensor",
    "GHiCOOTensor",
    "SemiCOOTensor",
    "SemiHiCOOTensor",
    "CSFTensor",
    "BCSFTensor",
    "VirtualRoot",
    "bcsf_mttkrp",
    "as_format",
    "to_coo",
    "unfold",
    "fold",
    "khatri_rao",
    "khatri_rao_list",
    "mttkrp_khatri_rao_operand",
    "outer",
    "read_tns",
    "write_tns",
    "tns_dumps",
    "save_npz",
    "load_npz",
    "save_hicoo_npz",
    "load_hicoo_npz",
    "save_csf_npz",
    "load_csf_npz",
    "FiberStats",
    "BlockStats",
    "TensorSummary",
    "fiber_stats",
    "block_stats",
    "summarize",
    "nnz_per_slice",
    "mode_fill",
    "apply_permutations",
    "random_reorder",
    "degree_reorder",
    "lexi_reorder",
    "blocking_quality",
]
