"""Memory-subsystem model: footprints, TLB behaviour and Transparent Hugepages.

Appendix D of the paper measures the effect of 2 MB / 1 GB pages on TLB miss
rates, page-table walks and page faults (Table 4), and Section 5.4 reports a
~1.3x end-to-end speed-up from Hugepages plus SIMD batching (Figure 10).

Real hardware counters are unavailable here, so this module models them from
first principles: the number of distinct pages a SLIDE iteration touches,
the TLB capacity, and the probability that a random access misses the TLB.
The *relative* improvements from larger pages — which is what Table 4 and
Figure 10 report — follow directly.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PageConfig",
    "TLBModel",
    "MemoryFootprint",
    "slide_memory_footprint",
    "hugepages_counter_comparison",
    "HUGEPAGES_SPEEDUP",
]

# End-to-end speed-up from the Hugepages + SIMD + software-prefetch bundle,
# as measured in the paper (Section 5.4, Figure 10).
HUGEPAGES_SPEEDUP = 1.3

# Typical data-TLB capacity of the paper's Broadwell Xeon (entries).
DTLB_ENTRIES = 1536
# Instruction-TLB capacity (entries).
ITLB_ENTRIES = 128
# Cycles burned by one page-table walk (order of magnitude).
PAGE_WALK_CYCLES = 50.0


@dataclass(frozen=True)
class PageConfig:
    """A virtual-memory page configuration."""

    name: str
    page_bytes: int

    def __post_init__(self) -> None:
        if self.page_bytes <= 0:
            raise ValueError("page_bytes must be positive")


STANDARD_PAGES = PageConfig(name="4KB pages", page_bytes=4 * 1024)
HUGE_PAGES_2MB = PageConfig(name="2MB hugepages", page_bytes=2 * 1024 * 1024)
HUGE_PAGES_1GB = PageConfig(name="1GB hugepages", page_bytes=1024 * 1024 * 1024)


@dataclass(frozen=True)
class MemoryFootprint:
    """Bytes of memory a workload touches, split by access behaviour."""

    resident_bytes: float
    touched_per_iteration_bytes: float
    accesses_per_iteration: float
    # The part of ``resident_bytes`` that is weight matrices plus their two
    # Adam moments: what the parameter dtype decides.
    parameter_bytes: float = 0.0

    def __post_init__(self) -> None:
        if min(
            self.resident_bytes,
            self.touched_per_iteration_bytes,
            self.accesses_per_iteration,
            self.parameter_bytes,
        ) < 0:
            raise ValueError("footprint quantities cannot be negative")


def slide_memory_footprint(
    input_dim: int,
    hidden_dim: int,
    output_dim: int,
    batch_size: int,
    avg_active_output: float,
    avg_input_nnz: float,
    l_tables: int,
    bytes_per_value: int = 4,
) -> MemoryFootprint:
    """Estimate SLIDE's memory footprint for one iteration.

    Resident memory covers the weight matrices, the Adam moments (2x), the
    per-neuron batch-sized bookkeeping arrays of Figure 2, and the hash
    tables.  Touched-per-iteration covers the active weights, activations and
    bucket probes of one mini-batch.
    """
    if min(input_dim, hidden_dim, output_dim, batch_size, l_tables) <= 0:
        raise ValueError("dimensions must be positive")
    weights = (input_dim * hidden_dim + hidden_dim * output_dim) * bytes_per_value
    optimizer_state = 2 * weights
    per_neuron_arrays = (hidden_dim + output_dim) * batch_size * (2 * bytes_per_value + 1)
    hash_tables = l_tables * output_dim * 8  # id + bucket metadata
    resident = float(weights + optimizer_state + per_neuron_arrays + hash_tables)

    touched = float(
        batch_size
        * (avg_input_nnz * hidden_dim + hidden_dim * avg_active_output)
        * 2
        * bytes_per_value
    )
    accesses = float(
        batch_size * (avg_input_nnz * hidden_dim + hidden_dim * avg_active_output) * 3
    )
    return MemoryFootprint(
        resident_bytes=resident,
        touched_per_iteration_bytes=touched,
        accesses_per_iteration=accesses,
        parameter_bytes=float(weights + optimizer_state),
    )


class TLBModel:
    """TLB miss-rate / page-walk model for a given page size.

    The model assumes the per-iteration accesses are scattered uniformly over
    the touched working set (the worst case for SLIDE's random neuron
    gathers).  A TLB with ``entries`` slots covers ``entries * page_bytes``
    of address space; accesses beyond that coverage miss with probability
    proportional to the uncovered fraction.
    """

    def __init__(self, page: PageConfig, dtlb_entries: int = DTLB_ENTRIES, itlb_entries: int = ITLB_ENTRIES) -> None:
        if dtlb_entries <= 0 or itlb_entries <= 0:
            raise ValueError("TLB entry counts must be positive")
        self.page = page
        self.dtlb_entries = int(dtlb_entries)
        self.itlb_entries = int(itlb_entries)

    # ------------------------------------------------------------------
    def dtlb_coverage_bytes(self) -> float:
        return float(self.dtlb_entries * self.page.page_bytes)

    def dtlb_miss_rate(self, footprint: MemoryFootprint) -> float:
        """Fraction of data accesses that miss the data TLB."""
        working_set = footprint.touched_per_iteration_bytes
        coverage = self.dtlb_coverage_bytes()
        if working_set <= coverage:
            # Small residual miss rate from cold/compulsory misses.
            return 0.002
        uncovered = (working_set - coverage) / working_set
        # Random accesses over the working set hit an uncovered page with
        # probability ``uncovered``; temporal locality tempers it.
        return float(min(0.95, 0.002 + 0.12 * uncovered))

    def itlb_miss_rate(self, code_bytes: float = 64 * 1024 * 1024) -> float:
        """Fraction of instruction fetch accesses that miss the ITLB.

        Deep-learning frameworks carry very large code footprints (the paper
        measures a 56 % ITLB miss rate with 4 KB pages); the miss rate falls
        sharply once a few huge pages cover the hot code.
        """
        coverage = self.itlb_entries * self.page.page_bytes
        if code_bytes <= coverage:
            return 0.01
        uncovered = (code_bytes - coverage) / code_bytes
        return float(min(0.95, 0.01 + 0.60 * uncovered))

    def page_walk_cycle_fraction(self, footprint: MemoryFootprint, instruction_share: float = 0.25) -> tuple[float, float]:
        """(data, instruction) fraction of CPU cycles lost to page walks."""
        d_miss = self.dtlb_miss_rate(footprint)
        i_miss = self.itlb_miss_rate()
        # Roughly one data access per MAC; page walks cost PAGE_WALK_CYCLES.
        data_fraction = min(0.5, d_miss * PAGE_WALK_CYCLES / (PAGE_WALK_CYCLES * d_miss + 4.0))
        instr_fraction = min(0.1, i_miss * instruction_share * 0.001)
        return float(data_fraction), float(instr_fraction)

    def ram_reads_per_second(
        self, footprint: MemoryFootprint, iterations_per_second: float, instruction_share: float = 0.004
    ) -> tuple[float, float]:
        """(data, instruction) main-memory reads per second caused by TLB misses."""
        data = self.dtlb_miss_rate(footprint) * footprint.accesses_per_iteration * iterations_per_second
        instr = self.itlb_miss_rate() * footprint.accesses_per_iteration * instruction_share * iterations_per_second
        return float(data), float(instr)

    def page_faults_per_second(self, footprint: MemoryFootprint, iterations_per_second: float) -> float:
        """Soft page faults per second (first-touch / reclaim activity).

        Scales with the number of *distinct pages* newly touched per second;
        bigger pages mean fewer distinct pages and therefore fewer faults.
        """
        pages_touched = footprint.touched_per_iteration_bytes / self.page.page_bytes
        fault_fraction = 0.002  # most touched pages are already resident
        baseline = 5_000.0  # background process activity
        return float(baseline + fault_fraction * pages_touched * iterations_per_second)


def hugepages_counter_comparison(
    footprint: MemoryFootprint,
    iterations_per_second: float = 10.0,
) -> dict[str, dict[str, float]]:
    """Reproduce the structure of Table 4: counters with and without hugepages.

    Returns a mapping ``metric -> {"without_hugepages": x, "with_hugepages": y}``.
    """
    small = TLBModel(STANDARD_PAGES)
    large = TLBModel(HUGE_PAGES_2MB)

    d_small, i_small = small.page_walk_cycle_fraction(footprint)
    d_large, i_large = large.page_walk_cycle_fraction(footprint)
    ram_d_small, ram_i_small = small.ram_reads_per_second(footprint, iterations_per_second)
    ram_d_large, ram_i_large = large.ram_reads_per_second(footprint, iterations_per_second)

    return {
        "dTLB load miss rate": {
            "without_hugepages": small.dtlb_miss_rate(footprint),
            "with_hugepages": large.dtlb_miss_rate(footprint),
        },
        "iTLB load miss rate": {
            "without_hugepages": small.itlb_miss_rate(),
            "with_hugepages": large.itlb_miss_rate(),
        },
        "PTW dTLB-miss cycle fraction": {
            "without_hugepages": d_small,
            "with_hugepages": d_large,
        },
        "PTW iTLB-miss cycle fraction": {
            "without_hugepages": i_small,
            "with_hugepages": i_large,
        },
        "RAM read dTLB-miss per second": {
            "without_hugepages": ram_d_small,
            "with_hugepages": ram_d_large,
        },
        "RAM read iTLB-miss per second": {
            "without_hugepages": ram_i_small,
            "with_hugepages": ram_i_large,
        },
        "PageFaults per second": {
            "without_hugepages": small.page_faults_per_second(footprint, iterations_per_second),
            "with_hugepages": large.page_faults_per_second(footprint, iterations_per_second),
        },
    }
