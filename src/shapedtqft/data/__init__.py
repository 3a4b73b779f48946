"""Bundled triangulation files (one-vertex H-triangulations, the standalone
bipyramid, and the two-tetrahedron figure-eight complement)."""
import json
from importlib import resources

from ..complexes import from_json_dict


def read_text(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text()


def path_of(name: str):
    return resources.files(__package__).joinpath(name)


def load(name: str):
    """(Triangulation, angles) of a bundled file."""
    return from_json_dict(json.loads(read_text(name)))
