"""Guard proxy for evolving image-labelling services.

Baselines a service against an application-specific benchmark, watches for
label-set and confidence drift, and converts detected evolution into
deterministic error codes delivered through HTTP conditional requests.
"""

__version__ = "0.1.0"
