"""PAS — the parameter archival storage system (Sec. IV of the paper).

PAS maintains a large collection of learned float matrices as compactly as
possible without compromising query performance.  Its pieces:

* :mod:`repro.core.float_schemes` — float representations the user can pick
  per snapshot (IEEE float32/16, truncated bfloat16, fixed point,
  quantization) trading storage for lossyness (Sec. IV-B).
* :mod:`repro.core.segmentation` — bytewise segmented storage of float
  matrices: high-order bytes separate from low-order bytes, enabling
  partial retrieval with bounded error (Sec. IV-B).
* :mod:`repro.core.delta` — delta encoding across snapshots and versions
  (arithmetic subtraction and bitwise XOR), plus the normalization
  transform of Table IV (Sec. IV-B).
* :mod:`repro.core.storage_graph` — the matrix storage graph, storage
  plans, and storage/recreation cost models (Sec. IV-C, Def. 1 & 2).
* :mod:`repro.core.archival` — solvers for the Optimal Parameter Archival
  Storage problem: MST / SPT baselines, LAST, PAS-MT, PAS-PT (Sec. IV-C).
* :mod:`repro.core.chunkstore` — content-addressed compressed blob store.
* :mod:`repro.core.storage` — pluggable storage backends (loose files,
  single-file SQLite-WAL databases, in-memory) behind one
  :class:`~repro.core.storage.StorageBackend` interface, addressed by
  ``file://`` / ``sqlite://`` / ``mem://`` URLs.
* :mod:`repro.core.retrieval` — physical recreation of snapshots from an
  archived plan under independent / parallel / reusable schemes.
* :mod:`repro.core.progressive` — progressive query (inference) evaluation
  that reads low-order segments only when Lemma 4 cannot determine the
  prediction (Sec. IV-D).
"""

from repro.core.cache import RetrievalCache
from repro.core.chunkstore import (
    ChunkStore,
    LatencyStore,
    MemoryChunkStore,
)
from repro.core.storage import (
    StorageBackend,
    parse_storage_url,
    resolve_backend,
)
from repro.core.delta import (
    apply_delta,
    compressed_size,
    delta_sub,
    delta_xor,
    measure_schemes,
)
from repro.core.float_schemes import (
    BFloat16Scheme,
    EncodedMatrix,
    FixedPointScheme,
    Float16Scheme,
    Float32Scheme,
    FloatScheme,
    QuantizationScheme,
    get_scheme,
)
from repro.core.segmentation import (
    NUM_PLANES,
    assemble_planes,
    bounds_from_prefix,
    segment_planes,
)
from repro.core.storage_graph import (
    MatrixRef,
    MatrixStorageGraph,
    RetrievalScheme,
    StorageEdge,
    StoragePlan,
)
from repro.core.archival import (
    alpha_constraints,
    frequency_constraints,
    last_tree,
    minimum_spanning_tree,
    pas_mt,
    pas_pt,
    shortest_path_tree,
    solve,
    spt_tightening,
)
from repro.core.inspect import (
    ascii_histogram,
    segment_compare,
    segment_histogram,
    segment_stats,
)
from repro.core.retrieval import PlanArchive, RecreationResult
from repro.core.progressive import ProgressiveEvaluator, ProgressiveResult

__all__ = [
    "BFloat16Scheme",
    "ChunkStore",
    "EncodedMatrix",
    "FixedPointScheme",
    "Float16Scheme",
    "Float32Scheme",
    "FloatScheme",
    "LatencyStore",
    "MatrixRef",
    "MatrixStorageGraph",
    "MemoryChunkStore",
    "NUM_PLANES",
    "PlanArchive",
    "ProgressiveEvaluator",
    "ProgressiveResult",
    "QuantizationScheme",
    "RecreationResult",
    "RetrievalCache",
    "RetrievalScheme",
    "StorageBackend",
    "StorageEdge",
    "StoragePlan",
    "alpha_constraints",
    "apply_delta",
    "ascii_histogram",
    "assemble_planes",
    "bounds_from_prefix",
    "compressed_size",
    "delta_sub",
    "delta_xor",
    "frequency_constraints",
    "get_scheme",
    "last_tree",
    "measure_schemes",
    "minimum_spanning_tree",
    "parse_storage_url",
    "pas_mt",
    "pas_pt",
    "resolve_backend",
    "segment_compare",
    "segment_histogram",
    "segment_planes",
    "segment_stats",
    "shortest_path_tree",
    "solve",
    "spt_tightening",
]
