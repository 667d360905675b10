"""numpy's SIMD dispatch, which the last bits of some pinned digests rest
on: a float64 loop may round differently on each target it dispatches to."""

try:
    from numpy.lib.introspect import opt_func_info
except ImportError:  # an older numpy, which cannot say
    opt_func_info = None


def float64_target(*names: str) -> str:
    """The target numpy's dispatch picks here for the float64 loop of each
    ufunc named (such as "X86_V4" or "baseline(X86_V2)"), joined by " + "
    where they differ; "unknown" where numpy cannot say."""
    if opt_func_info is None:
        return "unknown"
    info = opt_func_info(func_name="^(" + "|".join(names) + ")$", signature="float64")
    targets = dict.fromkeys(info[name]["dd"]["current"] for name in names)
    return " + ".join(targets)
