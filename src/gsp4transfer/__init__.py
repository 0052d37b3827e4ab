"""Transfer calculus for degree-4 similitude parameters.

Modules:

- satake: exact/float Satake scalars, dual-group parameter containers,
  the lifting maps between them, exponent classification.
- isobaric: formal cuspidal symbols with columnar local data, isobaric
  sums, Rankin-Selberg factorization and exact pole orders, the transfer
  shape lemma that judges document twists, descriptor case analysis,
  association matching.
- simgroups: GO/GSO(4, F_q) laboratory on integer-coded matrices, with
  exhaustive verification of the pair-map presentation.
- lseries: truncated Euler products over symbol columns, numerical
  pole-order estimates, synthetic angle data, weight-12 eigenvalue fixture.
- cli: command-line surface over all of the above.
"""

__version__ = "0.1.0"
