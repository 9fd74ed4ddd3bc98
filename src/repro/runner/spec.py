"""Declarative scenario specifications with deterministic fingerprints.

A :class:`ScenarioSpec` names everything one impact analysis needs — the
case (a bundled name or an inline case file in the paper's input format),
an optional attacker-randomization seed, the analyzer kind and the query
parameters — as plain JSON-able data, so scenarios can be shipped to
worker processes, hashed for the on-disk result cache, and replayed
bit-identically later.

The fingerprint covers the *resolved* case (the full serialized case
text, after attacker randomization), the query parameters and a code
fingerprint of the ``repro`` package sources: any change to the inputs or
to the analysis code invalidates cached results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Optional

from repro.exceptions import ModelError
from repro.grid.caseio import CaseDefinition, parse_case, write_case
from repro.numerics import default_policy
from repro.smt.rational import to_fraction

#: bump when the cached-result layout changes incompatibly.
#: v3: cache keys additionally carry the installed ``repro`` version and
#: a dedicated fingerprint of the encoding-relevant modules, so results
#: produced by a differently-versioned or differently-encoding install
#: never alias (outcomes also record ``certified``).
#: v4: outcomes grow a ``diagnostics`` payload and the deterministic
#: preflight rejections (``invalid_input``/``degenerate_case``) are
#: cached alongside ``ok`` — pre-v4 entries must not be served as "no
#: diagnostics recorded".
#: v5: specs grow a ``search`` mode (``decision`` | ``maximize``) and a
#: bisection ``tolerance``; maximize outcomes carry a ``max_impact``
#: payload — pre-v5 entries must not alias either mode's results.
#: v6: the guarded-numerics layer adds the ``numerical_unstable``
#: outcome status (cached like rejections) and fingerprints carry the
#: active numerics policy thresholds — pre-v6 entries were produced
#: with unguarded linear algebra and must not be served.
#: v7: specs grow a ``backend`` knob (dense | sparse | auto) and
#: fingerprints/encoding groups carry the *resolved* backend, so results
#: from the two numerical paths never alias — pre-v7 entries predate the
#: sparse core and must not be served.
#: v8: backend field removed (one linear-algebra path on scipy.sparse).
CACHE_FORMAT_VERSION = 8

#: bus count at and below which ``analyzer="auto"`` picks the full SMT
#: framework (mirrors the paper's Section IV-A hybrid).
AUTO_SMT_MAX_BUSES = 14

_code_fingerprint: Optional[str] = None
_encoding_fingerprint: Optional[str] = None

#: subpackages/modules (relative to the ``repro`` package root) whose
#: sources determine how a scenario is *encoded and solved* — the part of
#: the code whose changes can silently alter cached verdicts.
_ENCODING_SOURCES = ("smt", "core", "opf", "attacks", "estimation",
                    "grid", "topology", "numerics")


def _hash_sources(root: Path, relatives) -> str:
    digest = hashlib.sha256()
    for relative in relatives:
        target = root / relative
        paths = sorted(target.rglob("*.py")) if target.is_dir() \
            else ([target] if target.exists() else [])
        for path in paths:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def code_fingerprint() -> str:
    """Hash of the ``repro`` package sources (cached per process).

    Part of every scenario fingerprint, so edits to the analysis code
    automatically invalidate stale cached results.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        _code_fingerprint = _hash_sources(root, ["."])
    return _code_fingerprint


def encoding_fingerprint() -> str:
    """Hash of the encoding/solving modules only (cached per process).

    Narrower than :func:`code_fingerprint`: it pins the semantics of the
    SMT encodings and solvers behind a cached verdict without churning on
    runner/CLI edits, and is recorded in cache keys alongside the package
    version (cache format v3).
    """
    global _encoding_fingerprint
    if _encoding_fingerprint is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        _encoding_fingerprint = _hash_sources(root, _ENCODING_SOURCES)
    return _encoding_fingerprint


@dataclass(frozen=True)
class ScenarioSpec:
    """One (case × attacker × query) cell of a sweep grid."""

    case: str                            # bundled case name or a label
    analyzer: str = "auto"               # "smt" | "fast" | "auto"
    case_text: Optional[str] = None      # inline case (paper input format)
    attacker_seed: Optional[int] = None  # randomize_attacker() seed
    #: target increase as ``str(Fraction)`` (keeps the spec hashable and
    #: JSON-clean); None uses the case's own value.  In ``maximize`` mode
    #: this is the bisection bracket's *anchor* ``lo`` (None: 0).
    target: Optional[str] = None
    with_state_infection: bool = False
    max_candidates: int = 60
    state_samples: int = 24
    sample_seed: int = 0                 # fast-analyzer sampling seed
    #: "decision" answers the spec's threshold query; "maximize" bisects
    #: to the maximum achievable increase I* on the same warm session.
    search: str = "decision"
    #: maximize-mode bisection tolerance as ``str(Fraction)`` (None uses
    #: :data:`repro.search.DEFAULT_TOLERANCE`).
    tolerance: Optional[str] = None
    label: str = ""

    @classmethod
    def build(cls, case: str, *, analyzer: str = "auto",
              case_text: Optional[str] = None,
              attacker_seed: Optional[int] = None,
              target=None, with_state_infection: bool = False,
              max_candidates: int = 60, state_samples: int = 24,
              sample_seed: int = 0, search: str = "decision",
              tolerance=None, label: str = "") -> "ScenarioSpec":
        """Constructor accepting any rational-ish ``target``."""
        if analyzer not in ("smt", "fast", "auto"):
            raise ModelError(f"unknown analyzer kind {analyzer!r}")
        if search not in ("decision", "maximize"):
            raise ModelError(f"unknown search mode {search!r}")
        if tolerance is not None:
            if search != "maximize":
                raise ModelError(
                    "tolerance only applies to search='maximize'")
            if to_fraction(tolerance) <= 0:
                raise ModelError("bisection tolerance must be positive")
        target_str = None if target is None else str(to_fraction(target))
        tolerance_str = None if tolerance is None \
            else str(to_fraction(tolerance))
        if not label:
            parts = [case]
            if attacker_seed is not None:
                parts.append(f"s{attacker_seed}")
            if target_str is not None:
                parts.append(f"t{target_str}")
            if with_state_infection:
                parts.append("states")
            if search == "maximize":
                parts.append("max")
            label = "/".join(parts)
        return cls(case=case, analyzer=analyzer, case_text=case_text,
                   attacker_seed=attacker_seed, target=target_str,
                   with_state_infection=with_state_infection,
                   max_candidates=max_candidates,
                   state_samples=state_samples, sample_seed=sample_seed,
                   search=search, tolerance=tolerance_str, label=label)

    # -- resolution -----------------------------------------------------

    def resolve_case(self) -> CaseDefinition:
        """The concrete case this scenario analyzes."""
        if self.case_text is not None:
            case = parse_case(self.case_text, name=self.case)
        else:
            from repro.grid.cases import get_case
            case = get_case(self.case)
        if self.attacker_seed is not None:
            from repro.benchlib.scenarios import randomize_attacker
            case = randomize_attacker(case, self.attacker_seed)
        return case

    def resolved_analyzer(self, case: CaseDefinition) -> str:
        if self.analyzer != "auto":
            return self.analyzer
        return "smt" if case.num_buses <= AUTO_SMT_MAX_BUSES else "fast"

    def target_fraction(self) -> Optional[Fraction]:
        return None if self.target is None else Fraction(self.target)

    def tolerance_fraction(self) -> Optional[Fraction]:
        return None if self.tolerance is None else Fraction(self.tolerance)

    # -- serialization and fingerprinting -------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec, rejecting unknown fields.

        Raises :class:`ValueError` (never a bare ``TypeError`` stack
        trace) so boundary layers — the result cache and the analysis
        service's request protocol — can turn a malformed or
        version-skewed spec payload into a structured diagnostic.
        """
        if not isinstance(payload, dict):
            raise ValueError("scenario spec payload is not a JSON object")
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown scenario spec field(s): {', '.join(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ValueError(f"malformed scenario spec: {exc}") from exc

    def encoding_group(self) -> str:
        """Identity of the *encoding* this scenario solves against.

        Narrower than :meth:`fingerprint`: only the resolved case text,
        the analyzer kind and the state-infection flag shape the attack
        encoding — the target threshold, candidate caps and sampling
        seeds are per-query.  Scenarios with equal groups can share one
        warm analyzer (the engine re-solves them incrementally inside
        solver scopes instead of re-encoding per scenario).
        """
        case = self.resolve_case()
        key = {
            "case_text": write_case(case),
            "analyzer": self.resolved_analyzer(case),
            "with_state_infection": self.with_state_infection,
        }
        blob = json.dumps(key, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def fingerprint(self) -> str:
        """Deterministic identity of (resolved case, query, code)."""
        import repro
        case = self.resolve_case()
        key = {
            "format": CACHE_FORMAT_VERSION,
            "version": repro.__version__,
            "code": code_fingerprint(),
            "encoding": encoding_fingerprint(),
            "case_text": write_case(case),
            "analyzer": self.resolved_analyzer(case),
            "target": self.target,
            "with_state_infection": self.with_state_infection,
            "max_candidates": self.max_candidates,
            "state_samples": self.state_samples,
            "sample_seed": self.sample_seed,
            "search": self.search,
            "tolerance": self.tolerance,
            # The active guardrail thresholds decide when an analysis
            # degrades to ``numerical_unstable``, so a policy change
            # (e.g. via REPRO_NUMERIC_* overrides) must miss the cache
            # rather than serve results produced under different guards.
            "numerics": default_policy().key(),
        }
        blob = json.dumps(key, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()
