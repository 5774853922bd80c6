"""System configuration dataclasses.

All timing values are integer picoseconds (see :mod:`repro.sim.engine`).
Defaults model a DDR5-class device consistent with the parameters the
paper quotes from JESD79-5c: a ~350 ns RFM window used during PRAC
back-off recovery, a ~295 ns same-bank RFM latency used by Periodic RFM,
a 5 ns ABO delay, a 180 ns window of normal traffic (tABOACT), 3.9 us
refresh interval and a 32 ms refresh window.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field, fields, replace

from repro.sim.engine import MS, NS


class RefreshPolicy(enum.Enum):
    """Periodic-refresh scheduling policy of the memory controller."""

    #: No periodic refresh at all (unit tests / microbenchmarks only).
    NONE = "none"
    #: One REF every tREFI.
    EVERY_TREFI = "every-trefi"
    #: Postpone one refresh interval and issue two back-to-back REFs
    #: every 2 x tREFI (the behaviour the paper models; footnote 3).
    POSTPONE_PAIR = "postpone-pair"


class DefenseKind(enum.Enum):
    """Which RowHammer defense the memory system employs."""

    NONE = "none"
    PRAC = "prac"
    PRFM = "prfm"
    FRRFM = "fr-rfm"
    PRAC_RIAC = "prac-riac"
    PRAC_BANK = "prac-bank"
    PARA = "para"


def _dataclass_to_dict(obj) -> dict:
    """Serialize a config dataclass field-by-field (enums -> values,
    nested configs via their own ``to_dict``).  Driven by
    ``dataclasses.fields`` so newly added fields can never silently
    drop out of serialization or ``cache_key``."""
    data = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if hasattr(value, "to_dict"):
            value = value.to_dict()
        elif isinstance(value, enum.Enum):
            value = value.value
        data[f.name] = value
    return data


def _from_flat_dict(cls, data: dict):
    """Rebuild a flat (non-nested) dataclass from ``to_dict`` output,
    rejecting unknown keys so schema drift fails loudly."""
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**data)


@dataclass(frozen=True)
class DramTiming:
    """DDR5 timing parameters, in picoseconds."""

    tRCD: int = 16 * NS  #: ACT -> RD/WR
    tRP: int = 16 * NS  #: PRE -> ACT
    tRAS: int = 32 * NS  #: ACT -> PRE (row restore)
    tCL: int = 16 * NS  #: RD -> first data
    tBL: int = 3_330  #: burst transfer time on the data bus (BL16 @ 4800 MT/s)
    tRFC: int = 295 * NS  #: all-bank refresh latency (16 Gb device)
    tREFI: int = 3_900 * NS  #: refresh interval
    tREFW: int = 32 * MS  #: refresh window
    tRFM_AB: int = 350 * NS  #: all-bank RFM window (PRAC back-off recovery, FR-RFM)
    tRFM_SB: int = 295 * NS  #: same-bank RFM latency (Periodic RFM)
    tABO_DELAY: int = 5 * NS  #: PRE -> ABO assertion
    tABO_ACT: int = 180 * NS  #: window of normal traffic after ABO
    tABO_COOLDOWN: int = 180 * NS  #: cool-down before ABO may re-assert

    @property
    def tRC(self) -> int:
        """Minimum time between two ACTs to the same bank."""
        return self.tRAS + self.tRP

    def validate(self) -> None:
        """Raise ``ValueError`` on physically inconsistent parameters."""
        if min(
            self.tRCD, self.tRP, self.tRAS, self.tCL, self.tBL, self.tRFC,
            self.tREFI, self.tREFW, self.tRFM_AB, self.tRFM_SB,
        ) <= 0:
            raise ValueError("all DRAM timing parameters must be positive")
        if self.tRAS < self.tRCD:
            raise ValueError("tRAS must cover at least tRCD")
        if self.tREFW < self.tREFI:
            raise ValueError("tREFW must be >= tREFI")

    def to_dict(self) -> dict:
        return _dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DramTiming":
        return _from_flat_dict(cls, data)


@dataclass(frozen=True)
class DramOrg:
    """DRAM organization (a single memory channel)."""

    ranks: int = 1
    bankgroups: int = 8
    banks_per_group: int = 4
    rows_per_bank: int = 1 << 17  #: 128K rows/bank, as in the paper's Table 1
    cols_per_row: int = 1 << 7  #: cache lines per row (8 KB row / 64 B line)
    line_bytes: int = 64

    @property
    def banks_per_rank(self) -> int:
        return self.bankgroups * self.banks_per_group

    @property
    def total_banks(self) -> int:
        return self.ranks * self.banks_per_rank

    def validate(self) -> None:
        for name in ("ranks", "bankgroups", "banks_per_group",
                     "rows_per_bank", "cols_per_row", "line_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def to_dict(self) -> dict:
        return _dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DramOrg":
        return _from_flat_dict(cls, data)


def nbo_for_nrh(nrh: int, fraction: float = 0.25) -> int:
    """PRAC back-off threshold for a given RowHammer threshold.

    The DRAM chip asserts ABO at a fraction of N_RH (70-100% per the
    standard); secure configurations leave margin for the activations an
    attacker can land during tABOACT, recovery and the cool-down window,
    *and* for counters rising on rows beyond the per-back-off mitigation
    budget, so we default to a conservative N_BO = N_RH / 4 (the paper's
    attack evaluations pin N_BO = 128 explicitly instead of deriving it).
    """
    if nrh < 2:
        raise ValueError("N_RH must be >= 2")
    return max(1, int(nrh * fraction))


def trfm_for_nrh(nrh: int, divisor: int = 8) -> int:
    """Secure per-bank activation budget between RFMs for a given N_RH.

    Periodic RFM mitigates one potential aggressor per RFM; with a
    conservative margin for blast radius and counter overshoot the
    sustainable budget scales linearly with N_RH.  The default divisor
    reproduces the paper's qualitative result that RFM-based mitigation
    cost explodes below N_RH = 256 (T_RFM = 8 at N_RH = 64, leaving
    only ~9% of DRAM bandwidth under FR-RFM's fixed schedule).
    """
    if nrh < 2:
        raise ValueError("N_RH must be >= 2")
    return max(1, nrh // divisor)


@dataclass(frozen=True)
class DefenseParams:
    """Parameters of the configured RowHammer defense."""

    kind: DefenseKind = DefenseKind.NONE
    #: RowHammer threshold of the protected device.
    nrh: int = 1024
    #: PRAC back-off threshold (activation count that asserts ABO).
    nbo: int = 128
    #: Number of back-to-back RFMs the controller issues per back-off.
    n_rfms: int = 4
    #: Periodic-RFM bank activation threshold (also sets the FR-RFM period).
    trfm: int = 40
    #: PARA preventive-refresh probability per activation.
    para_probability: float = 0.001
    #: Latency of refreshing one aggressor's victims under PARA, ps.
    para_refresh_latency: int = 192 * NS
    #: Override for the total back-off blocking latency (Fig. 12 sweep);
    #: ``None`` means n_rfms * tRFM_AB.
    backoff_latency_override: int | None = None
    #: RNG seed for randomized defenses (RIAC, PARA).
    seed: int = 0xDEF

    @classmethod
    def for_nrh(cls, kind: DefenseKind, nrh: int, **overrides) -> "DefenseParams":
        """Build a securely-configured defense for a RowHammer threshold."""
        params = cls(
            kind=kind,
            nrh=nrh,
            nbo=nbo_for_nrh(nrh),
            trfm=trfm_for_nrh(nrh),
        )
        return replace(params, **overrides) if overrides else params

    def to_dict(self) -> dict:
        return _dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DefenseParams":
        data = dict(data)
        data["kind"] = DefenseKind(data["kind"])
        return _from_flat_dict(cls, data)


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration: organization, timing, defense, controller."""

    timing: DramTiming = field(default_factory=DramTiming)
    org: DramOrg = field(default_factory=DramOrg)
    defense: DefenseParams = field(default_factory=DefenseParams)
    refresh_policy: RefreshPolicy = RefreshPolicy.POSTPONE_PAIR
    #: FR-FCFS column cap: max consecutive row hits served while older
    #: conflicting requests wait (Table 1 of the paper).
    column_cap: int = 16
    #: Read/write queue capacity per channel.
    queue_size: int = 64
    #: Fixed latency added to every memory request by the on-chip path
    #: (cache lookups/bypass, on-chip network), in ps.
    frontend_latency: int = 15 * NS
    #: Per-iteration overhead of attacker measurement loops (clflush +
    #: loop bookkeeping), in ps.
    loop_overhead: int = 10 * NS
    #: Global seed for workload/agent randomness.
    seed: int = 1

    def validate(self) -> None:
        self.timing.validate()
        self.org.validate()
        if self.column_cap < 1:
            raise ValueError("column_cap must be >= 1")
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")

    def with_defense(self, defense: DefenseParams) -> "SystemConfig":
        """Return a copy of this config with a different defense."""
        return replace(self, defense=defense)

    def with_(self, **overrides) -> "SystemConfig":
        """Return a copy with arbitrary field overrides."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialization (worker hand-off, result caching)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable dict of every configuration field."""
        return _dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Inverse of :meth:`to_dict` (round-trips to an equal config)."""
        data = dict(data)
        data["timing"] = DramTiming.from_dict(data["timing"])
        data["org"] = DramOrg.from_dict(data["org"])
        data["defense"] = DefenseParams.from_dict(data["defense"])
        data["refresh_policy"] = RefreshPolicy(data["refresh_policy"])
        return _from_flat_dict(cls, data)

    def cache_key(self) -> str:
        """Stable content hash of this configuration.

        Equal configs hash identically across processes and interpreter
        runs; any field change produces a different key.  Used by the
        experiment result cache (:mod:`repro.exp.cache`).
        """
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
