"""Lossless prefix compression of qubit strings and an always-open channel."""

from .bruteforce import (OracleResult, compare_codes_bruteforce,
                         hmon_bruteforce, prefix_free_bruteforce,
                         projections_bruteforce, rate_bruteforce,
                         run_bruteforce)
from .channel import (BookResult, CodeBook, ComparisonReport, NoiseModel,
                      SimulationReport, compare_codes, init_channel, run)
from .codec import (Ensemble, LengthAssignment, LosslessCode,
                    SequentialProjection, build_code, canonical_codewords,
                    decode, encode, monotone_entropy, optimal_rate,
                    sequential_projections, shannon_entropy, tensor_ensemble)
from .errors import ValidationError
from .prefix import (KraftChain, PrefixBasis, Witness, gram_schmidt,
                     is_orthonormal, is_prefix_free, kraft_chain,
                     subspace_prefix_free)
from .qstring import (EPS, BitString, QubitString, avg_length, base_length,
                      concat, inner, ket, zero_extended)

__all__ = [
    "EPS", "BitString", "BookResult", "CodeBook", "ComparisonReport",
    "Ensemble", "KraftChain", "LengthAssignment", "LosslessCode",
    "NoiseModel", "OracleResult", "PrefixBasis", "QubitString",
    "SequentialProjection", "SimulationReport", "ValidationError",
    "Witness", "avg_length", "base_length", "build_code",
    "canonical_codewords", "compare_codes",
    "compare_codes_bruteforce", "concat", "decode", "encode",
    "gram_schmidt", "hmon_bruteforce", "init_channel", "inner",
    "is_orthonormal", "is_prefix_free", "ket", "kraft_chain",
    "monotone_entropy", "optimal_rate", "prefix_free_bruteforce",
    "projections_bruteforce", "rate_bruteforce", "run",
    "run_bruteforce", "sequential_projections", "shannon_entropy",
    "subspace_prefix_free", "tensor_ensemble", "zero_extended",
]
