"""repro.check — project-invariant static analysis + IR verification.

Two levels, one findings model:

* **Level 1** (:mod:`repro.check.engine` + :mod:`repro.check.rules`):
  an :mod:`ast`-based lint engine with a rule registry
  (:func:`~repro.check.engine.register_rule`, rules-as-data) and four
  project-specific analyzers — env-knob registry discipline
  (:mod:`repro.check.knobs` is the single source of truth the README
  table is generated from), telemetry-name discipline, fast-path
  contracts, and thread-safety basics.
* **Level 2** (:mod:`repro.check.ir`): a static verifier for compiled
  :class:`~repro.nn.compile.GraphProgram` plans — def-before-use,
  backward-schedule soundness and live-slot overwrites — run on every
  compile under ``REPRO_IR_VERIFY=1`` and
  unconditionally in tests.

Entry point: ``python -m repro check [--strict] [--format json]
[--baseline PATH]``.  Exit status is 0 when the tree is clean modulo
the committed baseline (:data:`~repro.check.findings.BASELINE_NAME`,
one justification per deliberately-kept finding).

Stdlib-only by design (like :mod:`repro.obs`); rule bodies may import
project modules to introspect the registries they validate.
"""

from .engine import DEFAULT_PATHS, RULES, register_rule, run_check
from .findings import BASELINE_NAME, Baseline, Finding, render_json, render_text
from .ir import IR_RULES, verify_program
from .knobs import KNOBS, KnobDef, render_env_table

__all__ = [
    "BASELINE_NAME",
    "Baseline",
    "DEFAULT_PATHS",
    "Finding",
    "IR_RULES",
    "KNOBS",
    "KnobDef",
    "RULES",
    "register_rule",
    "render_env_table",
    "render_json",
    "render_text",
    "run_check",
    "verify_program",
]
