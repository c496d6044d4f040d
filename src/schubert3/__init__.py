"""Exact Schubert calculus for points, planes and lines in projective 3-space.

Each public name lives in its submodule and is listed in that module's
`__all__`; `import schubert3` loads no submodule.
"""
