"""atomlab: a finite-horizon laboratory for a prime-field group action on
atoms, support reduction, iterated-log density ideals, and pair-tower
choice-function refutations."""

__version__ = "0.1.0"
