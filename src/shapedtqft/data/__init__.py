"""Bundled triangulation files (one-vertex H-triangulations, the standalone
bipyramid, and the two-tetrahedron figure-eight complement)."""
from importlib import resources


def read_text(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text()


def path_of(name: str):
    return resources.files(__package__).joinpath(name)
