"""Adaptive token selection on synthetic images.

Generates images with different numbers of planted high-attention
tokens and shows that the IQR selector keeps exactly as many tokens as
the image "needs": the kept count tracks image complexity instead of a
fixed budget. Renders the selection masks as text grids.
"""

from prumerge import SynthSpec, class_attention, iqr_fences, render_mask, select_outliers, synth_generate

for spikes in (4, 16, 48):
    spec = SynthSpec(grid=(12, 12), d=8, d_k=4, n_spikes=spikes, seed=spikes)
    tokens = synth_generate(spec)
    attention = class_attention(tokens)
    fences = iqr_fences(attention)
    selection = select_outliers(attention)

    print(f"planted spikes: {spikes}")
    print(f"  kept m = {selection.m} of {tokens.n} "
          f"({selection.m / tokens.n:.1%}), method = {selection.method}")
    print(f"  upper fence = {fences.upper:.2e}, "
          f"max attention = {attention.max():.2e}")
    print("\n".join("  " + line
                    for line in render_mask(selection, spec.grid).split("\n")))
    print()

# A flat image has no outliers at all; the selector falls back to a
# 1-token floor instead of returning nothing.
flat = synth_generate(SynthSpec(grid=(12, 12), d=8, d_k=4, n_spikes=0, seed=0))
selection = select_outliers(class_attention(flat))
print(f"flat image: m = {selection.m}, method = {selection.method}")
