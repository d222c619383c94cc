"""Computational hyperbolic geometry on the open unit disk.

Modules cover the isometry algebra of the Poincare disk (`disk`),
finitely generated groups of disk isometries and their limit sets
(`groups`), the surface-signature calculus with the 13-surface
classifier (`signature`), hyperbolic metrics from generalized pairs of
pants (`pants`), sampled boundary circle maps of free-group
automorphisms (`boundary`), output text (`jsontext` for small payloads
and plans, `text` for samples), and a CLI (`cli`).

Import names from their modules (`from hypsurf.groups import
limit_sample`): the package itself re-exports nothing, so `import
hypsurf` loads no numpy, and neither do `signature`, `pants` and
`jsontext`.
"""

__version__ = "0.1.0"
