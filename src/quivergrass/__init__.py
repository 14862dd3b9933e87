"""quivergrass: exact Euler characteristics of quiver Grassmannians.

Three mutually cross-validating routes: finite-field point counting with
verified polynomial interpolation, closed-form binomial formulas for the
Kronecker quiver, and principal generalized minors, evaluated in minuscule
representations, for Dynkin quivers.  All arithmetic is exact; no floating
point.

The counting core (`errors`, `model`, `linalg`, `subspaces`, `euler`,
`fpoly`, `kronecker`) is imported with the package.  The minor route
(`dynkin`) and the sampler (`sampler`) are imported the first time one of
their names is read from the package (PEP 562): a single computation pays
for compiling only the modules it runs, and where no bytecode is cached
(`PYTHONDONTWRITEBYTECODE`) that compile costs more than a small count.
The core stays eager, since every count runs it and its compile would
otherwise land inside the first call.
"""

import importlib

from .errors import QuivergrassError
from .euler import (
    CountingPolynomial,
    counting_polynomial,
    euler_characteristic,
    f_polynomial,
    interpolate_counting_polynomial,
)
from .fpoly import FPolynomial, f_poly_multiply
from .kronecker import (
    INFINITY,
    KroneckerKind,
    binom_ext,
    build_kronecker,
    kronecker_chi,
    kronecker_quiver,
    ordinary_grassmannian_chi,
    preinjective,
    preprojective,
    regular,
)
from .model import (
    Quiver,
    Representation,
    SubspaceTuple,
    direct_sum,
    dual_representation,
    euler_form,
    hom_dim,
    load_representation,
    reduce_mod,
    save_representation,
    validate_representation,
)
from .subspaces import (
    PointCount,
    count_subreps,
    gaussian_binomial,
    iter_subrep_tuples,
)

# the lazily imported modules -> their public names
_LAZY_MODULES = {
    "dynkin": ("RootSystem", "coxeter_from_orientation", "dynkin_indecomposable",
               "f_polynomial_via_minor", "orientation_from_coxeter", "root_system",
               "simple_reflection", "solve_gamma"),
    "sampler": ("example4_quartic", "example4_verify", "positivity_scan",
                "sample_general_rep"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "CountingPolynomial",
    "FPolynomial",
    "INFINITY",
    "KroneckerKind",
    "PointCount",
    "Quiver",
    "QuivergrassError",
    "Representation",
    "RootSystem",
    "SubspaceTuple",
    "binom_ext",
    "build_kronecker",
    "count_subreps",
    "counting_polynomial",
    "coxeter_from_orientation",
    "direct_sum",
    "dual_representation",
    "dynkin_indecomposable",
    "euler_characteristic",
    "euler_form",
    "example4_quartic",
    "example4_verify",
    "f_poly_multiply",
    "f_polynomial",
    "f_polynomial_via_minor",
    "gaussian_binomial",
    "hom_dim",
    "interpolate_counting_polynomial",
    "iter_subrep_tuples",
    "kronecker_chi",
    "kronecker_quiver",
    "load_representation",
    "ordinary_grassmannian_chi",
    "orientation_from_coxeter",
    "positivity_scan",
    "preinjective",
    "preprojective",
    "reduce_mod",
    "regular",
    "root_system",
    "sample_general_rep",
    "save_representation",
    "simple_reflection",
    "solve_gamma",
    "validate_representation",
]


def __getattr__(name: str):
    """Import the module that defines a lazy name, and keep the name here.

    The import system's per-module lock makes a first touch from two threads
    at once import the module once, so both get the same object.
    """
    if name in _LAZY_MODULES:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_MODULES))
