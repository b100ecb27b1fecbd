"""Adaptive visual-token reduction: IQR-based selection, key-similarity
merging, and a roofline prefill-cost model."""

from .core import (
    TokenSet,
    class_attention,
    key_similarity,
    scaled_softmax,
)
from .costmodel import (
    CostReport,
    HardwareProfile,
    ModelProfile,
    cost_comparison,
    cost_report,
    hardware_preset,
    memory_footprint,
    model_preset,
    prefill_flops,
    roofline_time,
)
from .merging import ReducedTokenSet, token_supplement
from .pipeline import (
    PipelineConfig,
    corpus_stats,
    reduce_tokens,
)
from .selection import (
    Fences,
    SelectionResult,
    iqr_fences,
    quartiles,
    select_outliers,
    sequential_baseline,
    spatial_grid_baseline,
    uniform_spatial_supplement,
)
from .tokendump import (
    SynthSpec,
    TokenDumpError,
    read_reduced_dump,
    read_token_dump,
    render_mask,
    synth_generate,
    write_reduced_dump,
    write_token_dump,
)

__version__ = "0.1.0"
