"""Adaptive visual-token reduction: IQR-based selection, key-similarity
merging, and a roofline prefill-cost model."""

import importlib

# each public name and the module that defines it. Names are looked up
# there when asked for (PEP 562), so importing the package, or the CLI
# for ``cost`` and ``--help``, does not import numpy; nothing is cached
# here, so a name rebound on its module is the one returned
_EXPORTS = {
    **dict.fromkeys(["TokenSet", "class_attention", "key_similarity", "scaled_softmax"],
                    "core"),
    **dict.fromkeys(["CostReport", "HardwareProfile", "ModelProfile", "cost_comparison",
                     "cost_report", "hardware_preset", "memory_footprint", "model_preset",
                     "prefill_flops", "roofline_time"], "costmodel"),
    **dict.fromkeys(["ReducedTokenSet", "token_supplement"], "merging"),
    **dict.fromkeys(["PipelineConfig", "corpus_stats", "reduce_tokens"], "pipeline"),
    **dict.fromkeys(["Fences", "SelectionResult", "iqr_fences", "quartiles", "select_outliers",
                     "sequential_baseline", "spatial_grid_baseline",
                     "uniform_spatial_supplement"], "selection"),
    **dict.fromkeys(["SynthSpec", "TokenDumpError", "read_reduced_dump", "read_token_dump",
                     "render_mask", "synth_generate", "write_reduced_dump", "write_token_dump"],
                    "tokendump"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS.values():  # prumerge.core and the like after `import prumerge`
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
