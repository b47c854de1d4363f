"""Neural-data compression substrate.

Section 6.2 argues that spike-sorting-style data reduction suits implants
better than "standard compression techniques", which need memory and extra
computational steps.  To make that comparison quantitative, this package
implements the standard techniques: delta predictive coding and Rice/Golomb
entropy coding (the classic low-memory lossless scheme for neural data, as
used by data-compressive recording ICs such as Jang et al., Table 1 #10),
plus the bit-accounting needed to fold compression into the Eq. 9
communication power.
"""
