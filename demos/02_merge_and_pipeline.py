"""Token merging and the end-to-end reduction pipeline.

Builds a small image with two planted key clusters, runs the full
reduce pipeline in both adaptive modes, and inspects the clusters that
produced each refined token. Also compares against the sequential and
spatial sampling baselines.
"""

import numpy as np

from prumerge import (
    PipelineConfig,
    SynthSpec,
    corpus_stats,
    reduce_tokens,
    synth_generate,
)

tokens = synth_generate(
    SynthSpec(grid=(8, 8), d=6, d_k=4, n_spikes=6, cluster_count=2, seed=11)
)

for mode, extra in (
    ("prumerge", {}),
    ("prumerge_plus", {}),
    ("sequential", {"budget": 8}),
    ("spatial", {"grid_rows": 3, "grid_cols": 3}),
):
    result = reduce_tokens(tokens, PipelineConfig(mode=mode, **extra))
    s = result.stats()
    print(f"{mode:15s} m = {s['m']:2d}  kept = {s['kept_fraction']:.1%}  "
          f"ratio = {s['compression_ratio']:.1f}x")

print()
result = reduce_tokens(tokens, PipelineConfig(mode="prumerge"))
print("clusters behind the refined tokens (prumerge, auto k):")
for center, members, weights, refined in zip(
    result.source_indices, result.members, result.weights, result.tokens
):
    print(f"  center {center:2d}: members {members.tolist()}, "
          f"weights {np.round(weights, 3).tolist()}")
    print(f"    refined token: {np.round(refined, 3).tolist()}")

# Corpus-level statistics over images of varying complexity.
results = [
    reduce_tokens(
        synth_generate(SynthSpec(grid=(24, 24), d=8, d_k=4, n_spikes=c, seed=c)),
        PipelineConfig(mode="prumerge"),
    )
    for c in (26, 28, 30, 32, 34, 36, 38)
]
summary = corpus_stats(results)
print()
print(f"corpus of {summary['images']} images: "
      f"mean kept {summary['kept_fraction_mean']:.1%}, "
      f"mean compression {summary['compression_ratio_mean']:.1f}x")
