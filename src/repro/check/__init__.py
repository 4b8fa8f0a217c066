"""Correctness tooling for the reproduction: determinism lint + sanitizer.

Two halves, one goal — make the determinism and causality claims the
results rest on mechanically checkable:

* :mod:`repro.check.lint` — an AST lint (``python -m repro.check lint``)
  for the per-file hazard classes in :mod:`repro.check.rules` (wall
  clocks, global RNG, unordered iteration, microsecond unit mixing,
  mutable defaults).
* :mod:`repro.check.analyze` — whole-program flow passes
  (``python -m repro.check analyze``) over the project graph built by
  :mod:`repro.check.graph`: pool-shared state and flow-sensitive unit
  inference (RTX008–RTX009).
* :mod:`repro.check.sanitizer` — an online virtual-time sanitizer for
  the event streams the schedulers emit (``--sanitize`` on the CLI,
  ``RTOPEX_SANITIZE=1`` for tests, ``replay`` for saved traces).
"""

from repro.check.analyze import (
    analyze_modules,
    analyze_paths,
)
from repro.check.graph import ProjectGraph, build_graph
from repro.check.lint import (
    Finding,
    lint_file,
    lint_module,
    lint_modules,
    lint_paths,
    lint_source,
)
from repro.check.parse import (
    ParsedModule,
    iter_python_files,
    load_modules,
    parse_file,
    parse_source,
)
from repro.check.rules import (
    ANALYZE_RULE_IDS,
    LINT_RULE_IDS,
    RULES,
    RULES_BY_ID,
    Rule,
    explain,
    rule_table,
)
from repro.check.sanitizer import (
    ALL_CHECKS,
    SANITIZE_ENV_VAR,
    SanitizerError,
    SanitizingSink,
    SanitizingTrace,
    TraceSanitizer,
    checks_for_scheduler,
    sanitize_enabled,
)

__all__ = [
    "ALL_CHECKS",
    "ANALYZE_RULE_IDS",
    "Finding",
    "LINT_RULE_IDS",
    "ParsedModule",
    "ProjectGraph",
    "RULES",
    "RULES_BY_ID",
    "Rule",
    "SANITIZE_ENV_VAR",
    "SanitizerError",
    "SanitizingSink",
    "SanitizingTrace",
    "TraceSanitizer",
    "analyze_modules",
    "analyze_paths",
    "build_graph",
    "checks_for_scheduler",
    "explain",
    "iter_python_files",
    "lint_file",
    "lint_module",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "load_modules",
    "parse_file",
    "parse_source",
    "rule_table",
    "sanitize_enabled",
]
