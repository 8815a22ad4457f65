"""dimlab: exact numeration-system cylinders, singular distribution
functions, and desk-scale packing-dimension estimation.

A name, or a submodule, is imported on first use (PEP 562): a bare
`import dimlab` loads no submodule, and `dimlab.family_dim` loads
`dimlab.dimension`."""

# each submodule, and the public names this package takes from it
_EXPORTS = {
    "qtilde": ("Cylinder", "PMatrix", "ProbColumn", "QMatrix", "cylinder",
               "expand", "locate"),
    "measure": ("f_xi_cylinder", "f_xi_point", "mu_cylinder"),
    "criteria": ("CriterionReport", "counterexample_spec", "pdp_verdict",
                 "sparse_column_stats"),
    "dimension": ("DimensionEstimate", "MoranSpec", "ScaleSample",
                  "dim_estimate", "enumerate_cylinders", "family_dim",
                  "moran_dim_oracle", "premeasure_ordering_check"),
    "cli": (),
    "errors": (),
    "harness": (),
    "jsontext": (),
}
_MODULES = {name: module for module, names in _EXPORTS.items()
            for name in names}

__all__ = [*_MODULES]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULES.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it here, so it is looked up once; the
    # builtin `__import__`, unlike `importlib`, shows it to -X importtime
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_MODULES, *_EXPORTS})
