"""Type-class elaboration pipelines with an executable coherence harness.

A small surface language with type classes is elaborated two ways: directly
into System F with records, and via an intermediate language with first-class
dictionaries. The harness checks that all elaborations of a program agree
observably.
"""

__version__ = "0.1.0"
