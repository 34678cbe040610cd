"""Hierarchical wave-function toolkit.

The package re-exports nothing: import from its modules, for example
``from hierwave.complexity import classify``.
"""

__version__ = "0.1.0"
