"""Online closed-loop task simulation.

Section 2's real-time requirement ("the system must detect, interpret,
and respond to brain activity before the user perceives any delay") is
ultimately about closed-loop task performance, and the paper's Section 8
calls for evaluating real-time behaviour "at the application level".
This package provides that evaluation harness: a simulated user whose
neural activity encodes intended movement (the closed-loop human
simulator of Cunningham et al., cited in Section 2), a cursor plant, and
a task loop measuring what architects actually care about — hit rate and
time-to-target as functions of decoder quality and loop latency.
"""
