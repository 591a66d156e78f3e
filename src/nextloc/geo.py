"""Great-circle distances and square-grid indexing for check-in coordinates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
M_PER_DEG = 111195.0  # meters per degree of latitude, EARTH_RADIUS_KM * pi / 180 * 1000


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class GridSpec:
    """Square grid anchored at the dataset bounding box's south-west corner."""

    origin: GeoPoint
    cell_m: float = 500.0

    def __post_init__(self):
        if self.cell_m <= 0:
            raise ValueError("cell_m must be positive")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in kilometers on a sphere of radius 6371 km."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    s = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def haversine_vec(lat1, lon1, lat2, lon2):
    """Elementwise haversine distance (km) over coordinate arrays in degrees."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(a, dtype=np.float64)) for a in (lat1, lon1, lat2, lon2))
    s = np.sin((lat2 - lat1) / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def location_km(coords, a, b) -> np.ndarray:
    """Haversine km between the locations of index arrays `a` and `b`, whose
    (lat, lon) are rows of `coords`; exactly 0 where the indices are equal.
    Passing `coords` as a float64 array spares a conversion per call."""
    coords, a, b = np.asarray(coords, dtype=np.float64), np.asarray(a), np.asarray(b)
    d = haversine_vec(coords[a, 0], coords[a, 1], coords[b, 0], coords[b, 1])
    d[a == b] = 0.0
    return d


def grid_index(p: GeoPoint, g: GridSpec) -> tuple[int, int]:
    """(row, col) of the square cell containing p.

    Local equirectangular projection about the grid origin; indices may be
    negative for points south/west of the origin.
    """
    north_m = (p.lat - g.origin.lat) * M_PER_DEG
    east_m = (p.lon - g.origin.lon) * M_PER_DEG * math.cos(math.radians(g.origin.lat))
    return math.floor(north_m / g.cell_m), math.floor(east_m / g.cell_m)
