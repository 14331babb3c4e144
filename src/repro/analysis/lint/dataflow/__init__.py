"""schedlint's dataflow tier: CFG + fixed-point analyses.

The ``--dataflow`` flag swaps three syntactic rules for flow-aware
replacements and adds whole-program checks:

``taint``
    interprocedural determinism-taint (wall clock, unseeded random,
    environment, ``id()``, set/dict iteration order) flowing into
    event timestamps, sort keys, digests, and RNG seeds.

``parity``
    structural equivalence of each scheduler's fused tick closure
    against the generic ``_update_curr``/``_tick`` chain.

``atomicity``
    non-atomic artifact writes and generation-unchecked read-modify-
    write cycles in the multi-process experiments tree.

Each submodule is importable on its own; :mod:`..rules` pulls them in
lazily so the basic tier never pays for the dataflow machinery.
"""

from .atomicity import RULE_NONATOMIC, RULE_RMW
from .baseline import (apply_baseline, baseline_key, canonical_path,
                       load_baseline, write_baseline)
from .cfg import CFG, Block, FuncInfo, build_cfg, module_functions
from .parity import RULE_TICKHOOK, check_parity
from .sarif import sarif_dict, write_sarif
from .solver import env_join, solve_forward
from .taint import KIND_RULE, analyze_module

__all__ = [
    "CFG", "Block", "FuncInfo", "KIND_RULE", "RULE_NONATOMIC", "RULE_RMW", "RULE_TICKHOOK", "analyze_module",
    "apply_baseline", "baseline_key", "build_cfg", "canonical_path",
    "check_parity", "env_join", "load_baseline", "module_functions",
    "sarif_dict", "solve_forward", "write_baseline", "write_sarif",
]
