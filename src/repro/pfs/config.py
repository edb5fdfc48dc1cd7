"""PFS simulator configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.semantics import Semantics


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry discipline against failing servers.

    On a transient server error (injected fault or a crashed server in
    its downtime window) the client backs off ``base_delay *
    backoff**attempt`` seconds, stretched by up to ``jitter`` fraction
    of itself (a seeded per-client draw, so timing stays reproducible),
    then reissues the operation.  After ``max_attempts`` total tries it
    gives up and raises :class:`~repro.errors.PFSGiveUpError`.

    The defaults ride out the default 2 ms crash downtime with room to
    spare: eight attempts back off ~12.7 ms cumulatively.
    """

    max_attempts: int = 8
    base_delay: float = 100e-6
    backoff: float = 2.0
    jitter: float = 0.1

    def delay(self, attempt: int, u: float = 0.0) -> float:
        """Backoff before retry number ``attempt`` (0-based), with
        ``u`` in [0, 1) scaling the jitter term."""
        return (self.base_delay * self.backoff ** attempt
                * (1.0 + self.jitter * u))


@dataclass
class PFSConfig:
    """Shape and cost model of the simulated parallel file system.

    Cost units are virtual seconds; only ratios matter.  The defaults
    model a Lustre-like system: a single metadata server that serializes
    lock traffic and a handful of data servers striping file bodies.
    """

    semantics: Semantics = Semantics.STRONG
    n_data_servers: int = 4
    stripe_size: int = 1 << 20

    #: tunable consistency (the "hints" idea of §2.3): longest-prefix
    #: per-path overrides of the base model, so e.g. checkpoint
    #: directories can run relaxed while a conflicted metadata file
    #: keeps strong semantics.
    semantics_overrides: dict[str, Semantics] = field(
        default_factory=dict)

    #: does the PFS order a single client's own operations?  True for
    #: everything in Table 1 except BurstFS (and undefined for PLFS).
    same_process_ordering: bool = True

    #: visibility delay for EVENTUAL semantics (background propagation)
    eventual_delay: float = 50e-3

    #: how hazardous (mutually unordered) writes settle: "close" applies
    #: publication batches in commit order; "client" merges per-client
    #: write logs in client-id order (the PLFS index-merge shape).
    settle_order: str = "close"

    #: strong-semantics locking model: "fixed" charges one MDS round
    #: trip per data op; "range" runs the full conflict-aware
    #: range-lock manager (repro.pfs.locks) with the granularity below.
    lock_mode: str = "fixed"
    #: bytes per lock unit for lock_mode="range"; 0 = whole-file locks
    lock_granularity: int = 1 << 16

    #: client-side write aggregation + read-ahead (§6.2).  Only offered
    #: under relaxed semantics: strong consistency must see every
    #: operation at the servers (which is §3.1's point about caching).
    client_cache: bool = False
    writeback_limit: int = 1 << 20
    readahead: int = 1 << 16

    #: retry/backoff discipline against transient server failures
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    #: does the MDS journal publish (commit/close) records to stable
    #: storage?  True models a real journaling MDS: a publish is durable
    #: the instant it returns.  False is a deliberately broken server —
    #: publishes are visible but volatile, and an MDS or OST crash loses
    #: committed data, which the crash-consistency checker must flag.
    mds_journal: bool = True

    # -- cost model ------------------------------------------------------------
    client_overhead: float = 2e-6      # per operation, client side
    mds_service_time: float = 30e-6    # per MDS request (open/close/lock)
    ost_per_op: float = 20e-6          # per request at a data server
    ost_per_byte: float = 2e-9         # streaming cost at a data server
    network_rtt: float = 10e-6         # client <-> server round trip

    def semantics_for(self, path: str) -> Semantics:
        """The model governing ``path``: longest matching override wins."""
        best = self.semantics
        best_len = -1
        for prefix, semantics in self.semantics_overrides.items():
            if path.startswith(prefix) and len(prefix) > best_len:
                best = semantics
                best_len = len(prefix)
        return best

    def locks_for(self, path: str) -> int:
        """MDS lock round trips charged per read/write on ``path``."""
        return 1 if self.semantics_for(path) is Semantics.STRONG else 0
