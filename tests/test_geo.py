import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc.geo import EARTH_RADIUS_KM, GeoPoint, GridSpec, grid_index, haversine_km, haversine_vec, location_km


def oracle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Independent great-circle distance: angle between unit vectors via
    atan2(|cross|, dot), a different formula from the haversine."""
    def unit(p):
        lat, lon = math.radians(p.lat), math.radians(p.lon)
        return np.array([
            math.cos(lat) * math.cos(lon),
            math.cos(lat) * math.sin(lon),
            math.sin(lat),
        ])

    u, v = unit(a), unit(b)
    angle = math.atan2(np.linalg.norm(np.cross(u, v)), float(np.dot(u, v)))
    return EARTH_RADIUS_KM * angle


def test_identical_points_distance_zero():
    p = GeoPoint(40.7128, -74.0060)
    assert haversine_km(p, p) == 0.0


def test_one_degree_longitude_at_equator():
    assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(111.195, abs=1e-3)


def test_nyc_tokyo_matches_oracle():
    a, b = GeoPoint(40.7128, -74.0060), GeoPoint(35.6895, 139.6917)
    want = oracle_km(a, b)
    assert haversine_km(a, b) == pytest.approx(want, rel=1e-6)


def test_vectorized_matches_scalar():
    pts = [(-10.0, 3.0), (51.5, -0.1), (35.7, 139.7), (0.0, 0.0)]
    lat1, lon1 = zip(*pts)
    lat2, lon2 = zip(*reversed(pts))
    got = haversine_vec(lat1, lon1, lat2, lon2)
    for i in range(len(pts)):
        assert got[i] == pytest.approx(haversine_km(GeoPoint(lat1[i], lon1[i]), GeoPoint(lat2[i], lon2[i])), abs=1e-12)


def test_location_km_is_the_haversine_between_rows_and_0_between_equal_indices():
    coords = [(40.7, -74.0), (40.8, -73.9), (35.7, 139.7)]
    a, b = [0, 1, 2, 1], [2, 1, 0, 0]
    c = np.asarray(coords)
    d = location_km(coords, a, b)
    assert d.tolist() == haversine_vec(c[a, 0], c[a, 1], c[b, 0], c[b, 1]).tolist()
    assert d[1] == 0.0


coord = st.tuples(
    st.floats(min_value=0.0, max_value=80.0),     # one hemisphere
    st.floats(min_value=-90.0, max_value=90.0),
)


@given(coord, coord)
def test_symmetry(pa, pb):
    a, b = GeoPoint(*pa), GeoPoint(*pb)
    assert haversine_km(a, b) == haversine_km(b, a)
    assert haversine_km(a, b) >= 0.0


@settings(max_examples=200)
@given(coord, coord, coord)
def test_triangle_inequality(pa, pb, pc):
    a, b, c = GeoPoint(*pa), GeoPoint(*pb), GeoPoint(*pc)
    assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-9


def test_grid_origin_is_cell_zero():
    g = GridSpec(GeoPoint(40.0, -74.0), 500.0)
    assert grid_index(GeoPoint(40.0, -74.0), g) == (0, 0)


def test_grid_750m_north_is_row_one():
    g = GridSpec(GeoPoint(40.0, -74.0), 500.0)
    p = GeoPoint(40.0 + 750.0 / 111195.0, -74.0)
    assert grid_index(p, g)[0] == 1


def test_grid_499m_east_is_col_zero():
    g = GridSpec(GeoPoint(40.0, -74.0), 500.0)
    p = GeoPoint(40.0, -74.0 + 499.0 / (111195.0 * math.cos(math.radians(40.0))))
    assert grid_index(p, g) == (0, 0)


def test_grid_south_west_goes_negative():
    g = GridSpec(GeoPoint(40.0, -74.0), 500.0)
    p = GeoPoint(40.0 - 600.0 / 111195.0, -74.0)
    assert grid_index(p, g)[0] == -2


@given(st.floats(min_value=-80, max_value=80), st.floats(min_value=-170, max_value=170),
       st.integers(min_value=-5, max_value=5))
def test_grid_translation_one_cell_north(lat, lon, rows):
    g = GridSpec(GeoPoint(40.0, -74.0), 500.0)
    p = GeoPoint(lat, lon)
    # move exactly rows cells north in the projection
    q = GeoPoint(lat + rows * 500.0 / 111195.0, lon)
    r0, c0 = grid_index(p, g)
    r1, c1 = grid_index(q, g)
    assert c1 == c0
    assert r1 - r0 in (rows - 1, rows, rows + 1)  # 1 ulp of slack at cell edges


def test_gridspec_rejects_nonpositive_cell():
    with pytest.raises(ValueError):
        GridSpec(GeoPoint(0, 0), 0.0)


def test_geopoint_rejects_bad_ranges():
    with pytest.raises(ValueError):
        GeoPoint(95.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 190.0)
