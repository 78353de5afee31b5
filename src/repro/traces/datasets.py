"""Profiles of the three evaluation traces (Table I / Table II).

The paper evaluates on three 24-hour Microsoft server traces from the SNIA
IOTTA repository. The raw traces are tens of GB and not redistributable, so
this reproduction generates synthetic equivalents whose *shape parameters*
match everything the paper's results depend on:

=====================  ==========  ==========  ==========
parameter              DTR         LMBE        RA
=====================  ==========  ==========  ==========
max depth (Table I)    49          9           13
records (Table I)      34,349,109  88,160,590  259,915,851
read  (Table II)       67.743%     78.877%     47.734%
write (Table II)       26.137%     21.108%     36.174%
update (Table II)      6.119%      0.015%      16.102%
GL query share (§VI-A) ≈83%        ≈41.4%      ≈67% of updates
=====================  ==========  ==========  ==========

Record counts are scaled by :data:`DEFAULT_SCALE` (absolute trace size does
not change who wins or where crossovers fall — only the mix and skew do).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict

__all__ = [
    "DatasetProfile", "DEFAULT_SCALE", "PAPER_RECORD_COUNTS", "PROFILES",
]

#: Fraction of the paper's record counts generated by default (1e-3 keeps a
#: full three-trace benchmark run in seconds while preserving every ratio).
DEFAULT_SCALE = 1.0e-3

#: Raw record counts from Table I.
PAPER_RECORD_COUNTS: Dict[str, int] = {
    "DTR": 34_349_109,
    "LMBE": 88_160_590,
    "RA": 259_915_851,
}

#: Raw trace sizes from Table I (GB), reported for the Table I bench.
PAPER_TRACE_SIZES_GB: Dict[str, float] = {"DTR": 5.9, "LMBE": 15.1, "RA": 39.3}


@dataclass(frozen=True)
class DatasetProfile:
    """Generator parameters for one synthetic trace.

    Attributes
    ----------
    name, description:
        Identification (Table I's naming).
    num_nodes:
        Namespace tree size to generate.
    max_depth:
        Exact maximum tree depth (Table I); the generator plants at least one
        chain of this depth.
    mean_branching:
        Average children per directory for the bulk of the tree.
    num_operations:
        Trace length (Table I record count × scale by default).
    read_fraction, write_fraction, update_fraction:
        Operation mix (Table II); must sum to 1.
    hot_fraction:
        Fraction of namespace nodes forming the *hot set* — the nodes a
        popularity-ranked global layer of the paper's default 1% proportion
        would absorb.
    hot_access_fraction:
        Fraction of accesses directed at the hot set. This is the knob that
        reproduces the paper's layer-hit ratios (≈83% GL hits for DTR,
        ≈41.4% for LMBE).
    zipf_exponent:
        Skew of the access distribution over the cold tier.
    hot_zipf_exponent:
        Skew *inside* the hot set. Kept mild (default 0.6): the hot tier as a
        whole concentrates traffic, but no single file dominates a 24-hour
        server trace.
    file_depth_bias:
        Exponent biasing cold-file placement toward deep directories
        (attachment weight ``(1+depth)^bias``). High values (LMBE) model
        back-end stores whose payload files sit at the bottom of the
        hierarchy — the structural reason 58.57% of LMBE queries land in
        D2-Tree's local layer and why static subtree partitioning edges out
        D2-Tree on LMBE locality (Sec. VI-B).
    drift_phases, drift_rate:
        Diurnal popularity drift: the trace is divided into ``drift_phases``
        equal windows, and each window the Zipf rank order rotates by
        ``drift_rate`` of the pool. The paper's Fig. 7 methodology (replay 20
        subtraces, rebalance between rounds) is only meaningful when load
        actually shifts; 24-hour server traces do drift.
    create_fraction:
        Fraction of cold files that do not exist at partition time — their
        first trace occurrence becomes a CREATE and each scheme must place
        the newcomer on the fly. Zero by default (the paper's filtered
        traces contain no creates).
    seed:
        Generator seed (profiles are fully deterministic).
    """

    name: str
    description: str
    num_nodes: int
    max_depth: int
    mean_branching: float
    num_operations: int
    read_fraction: float
    write_fraction: float
    update_fraction: float
    hot_fraction: float
    hot_access_fraction: float
    zipf_exponent: float
    seed: int
    hot_zipf_exponent: float = 0.6
    file_depth_bias: float = 1.0
    drift_phases: int = 20
    drift_rate: float = 0.05
    create_fraction: float = 0.0

    def __post_init__(self) -> None:
        total = self.read_fraction + self.write_fraction + self.update_fraction
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"operation fractions must sum to 1 (got {total})")
        if self.num_nodes < self.max_depth + 1:
            raise ValueError("tree must have room for the max-depth chain")
        if not 0 < self.hot_fraction < 1:
            raise ValueError("hot_fraction must lie in (0, 1)")
        if not 0 <= self.hot_access_fraction <= 1:
            raise ValueError("hot_access_fraction must lie in [0, 1]")

    # ------------------------------------------------------------------
    # The three paper traces
    # ------------------------------------------------------------------
    @classmethod
    def dtr(cls, num_nodes: int = 20_000, scale: float = DEFAULT_SCALE) -> "DatasetProfile":
        """Development Tools Release — deep tree, heavily skewed reads.

        83.06% of queries hit the global layer (Sec. VI-A), i.e. the release
        artefacts everyone fetches live in a few very hot directories.
        """
        return cls(
            name="DTR",
            description="Collected for Developers Tools Release server.",
            num_nodes=num_nodes,
            max_depth=49,
            mean_branching=3.0,
            num_operations=max(1000, round(PAPER_RECORD_COUNTS["DTR"] * scale)),
            read_fraction=0.67743,
            write_fraction=0.26137,
            update_fraction=0.06119 + 0.00001,  # rounding: Table II sums to 0.99999
            hot_fraction=0.01,
            hot_access_fraction=0.8306,
            zipf_exponent=1.1,
            seed=101,
            file_depth_bias=1.0,
        )

    @classmethod
    def lmbe(cls, num_nodes: int = 20_000, scale: float = DEFAULT_SCALE) -> "DatasetProfile":
        """Live Maps Back End — shallow tree, 58.57% local-layer queries."""
        return cls(
            name="LMBE",
            description="Collected for LiveMaps back-end server.",
            num_nodes=num_nodes,
            max_depth=9,
            mean_branching=8.0,
            num_operations=max(1000, round(PAPER_RECORD_COUNTS["LMBE"] * scale)),
            read_fraction=0.78877,
            write_fraction=0.21108,
            update_fraction=0.00015,
            hot_fraction=0.01,
            hot_access_fraction=0.4143,  # 1 − 0.5857 of queries hit the GL
            zipf_exponent=0.8,
            seed=202,
            file_depth_bias=3.0,
        )

    @classmethod
    def ra(cls, num_nodes: int = 20_000, scale: float = DEFAULT_SCALE) -> "DatasetProfile":
        """Radius Authentication — update-heavy (16.1%), moderate depth."""
        return cls(
            name="RA",
            description="Collected for RADIUS authentication server.",
            num_nodes=num_nodes,
            max_depth=13,
            mean_branching=5.0,
            num_operations=max(1000, round(PAPER_RECORD_COUNTS["RA"] * scale)),
            read_fraction=0.47734,
            write_fraction=0.36174,
            update_fraction=0.16092,  # Table II sums to 1.00010; trimmed here
            hot_fraction=0.01,
            hot_access_fraction=0.67,  # 67% of RA's updates target the GL (§VI-A)
            zipf_exponent=0.95,
            seed=303,
            file_depth_bias=1.5,
        )

    def scaled(self, num_nodes: int = None, num_operations: int = None) -> "DatasetProfile":
        """Copy of the profile with a different scale (tests use tiny ones)."""
        changes = {}
        if num_nodes is not None:
            changes["num_nodes"] = num_nodes
        if num_operations is not None:
            changes["num_operations"] = num_operations
        return replace(self, **changes)


#: ``--trace`` name -> profile factory ``(num_nodes=, scale=)``: the one
#: table the CLI and the chaos recipe (``CorpusCase.trace``) both read.
PROFILES: Dict[str, Callable[..., DatasetProfile]] = {
    "dtr": DatasetProfile.dtr,
    "lmbe": DatasetProfile.lmbe,
    "ra": DatasetProfile.ra,
}
