"""Exact Zariski decompositions of anti-canonical cycles and the algebraic
dimension of the twistor pencils they bound."""
