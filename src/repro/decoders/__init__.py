"""Baseline decoders and data-reduction substrates.

The paper positions modern DNN decoders against the traditional linear
algorithms BCIs have historically used (Section 2.3): the Kalman filter and
the Wiener filter.  It also leans on spike-sorting-style activity detection
as the mechanism behind the channel-dropout optimization (Section 6.2).
This package implements all three, plus a thin decoder wrapper around the
:mod:`repro.dnn` networks so the fleet can compare the families on the
same synthetic sessions.
"""
