"""Pure-NumPy deep-learning substrate with exact MAC accounting.

The MINDFUL computation analysis (paper Section 5.3) needs, for every DNN
layer, the pair (MACseq, #MACop) of Eq. 10 — the accumulation depth and the
number of independent multiply-accumulate sequences.  Rather than hard-code
those numbers, this package implements a small but real neural-network
library (dense / conv / activation layers with forward *and* backward
passes), derives the MAC profile from the actual layer shapes, and provides
builders for the paper's two workloads: the speech-synthesis MLP and
DenseNet-style CNN (DN-CNN) of Berezutskaya et al., plus the alpha-scaling
transform that grows them with channel count.
"""
