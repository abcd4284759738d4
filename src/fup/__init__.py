"""Finite uncertainty principles for Cantor-set masked discrete Fourier
transforms: exact set combinatorics, certified norm computations, the
Gaussian lower-bound pipeline, Diophantine upper bounds for dilated sets,
and open quantum baker's maps.
"""

__version__ = "0.1.0"

from .cantor import (Alphabet, CantorSet, CapacityError, DilatedCantorSet,
                     build_alphabet_initial, build_alphabet_interval,
                     cantor_elements, dilate, parse_rational)
from .spectral import (ConvergenceError, FupExponentReport, NormCertificate,
                       beta_dilated, beta_k, dft_apply, dft_submatrix,
                       lanczos_top, masked_gram_apply, masked_norm, power_top,
                       submatrix_norm_bounds)
from .jacobi import JacobiSVD, jacobi_svd
from .testfn import (ConvolutionChain, SeedFunction, Theorem1Report,
                     ZCertificate, band_lipschitz, band_masses,
                     convolution_chain, gaussian_seed, gaussian_symbol,
                     gaussian_symbol_theta, indicator_seed, symbol_eval,
                     theorem1_certificate, verify_product_formula,
                     verify_tail_bound, z_certificate)
from .diophantine import (ExpSumBounds, RationalApprox, Theorem2Report,
                          best_rational, canonical_dilation, f1_abs, f1_eval,
                          f1_sup, fk_eval, g_bound, sk_estimate,
                          theorem2_report)
from .baker import (BakerMap, CutoffProfile, GelfandReport, bump_profile,
                    gelfand_bound, make_cutoff, sharp_profile)
from .sweep import RunRecord, SweepSpec, run_sweep

__all__ = [
    "Alphabet", "CantorSet", "CapacityError", "DilatedCantorSet",
    "build_alphabet_initial", "build_alphabet_interval", "cantor_elements",
    "dilate", "parse_rational",
    "ConvergenceError", "FupExponentReport", "NormCertificate",
    "beta_dilated", "beta_k", "dft_apply", "dft_submatrix", "lanczos_top",
    "masked_gram_apply", "masked_norm", "power_top", "submatrix_norm_bounds",
    "JacobiSVD", "jacobi_svd",
    "ConvolutionChain", "SeedFunction", "Theorem1Report", "ZCertificate",
    "band_lipschitz", "band_masses", "convolution_chain",
    "gaussian_seed", "gaussian_symbol", "gaussian_symbol_theta",
    "indicator_seed", "symbol_eval", "theorem1_certificate",
    "verify_product_formula", "verify_tail_bound", "z_certificate",
    "ExpSumBounds", "RationalApprox", "Theorem2Report", "best_rational",
    "canonical_dilation", "f1_abs", "f1_eval", "f1_sup", "fk_eval", "g_bound",
    "sk_estimate", "theorem2_report",
    "BakerMap", "CutoffProfile", "GelfandReport", "bump_profile", "gelfand_bound", "make_cutoff", "sharp_profile",
    "RunRecord", "SweepSpec", "run_sweep",
    "__version__",
]
