from qdl_lab import reference
from qdl_lab.fock import enumerate_patterns


class TestReferenceData:
    def test_patterns_are_valid_and_normalised(self):
        for table in (reference.TABLE_I, reference.TABLE_II, reference.TABLE_III, reference.TABLE_IV):
            for (m, n), entries in table.items():
                valid = {q.parts for q in enumerate_patterns(m, n)}
                for parts in entries:
                    assert parts in valid, (m, n, parts)

    def test_table_v_is_bunched_only(self):
        for (m, n), value in reference.TABLE_V.items():
            assert n <= m and value > 0

    def test_pattern_tables_cover_published_pattern_sets(self):
        # the n <= 6 groups list every partition; the n = 8 groups were
        # published with 13 of the 22 partitions
        for table in (reference.TABLE_III, reference.TABLE_IV):
            for (m, n), entries in table.items():
                if n <= 6:
                    assert len(entries) == len(enumerate_patterns(m, n))
                else:
                    assert len(entries) == 13
                # every group includes the conjectured maximiser
                assert (n,) in entries

    def test_lookup(self):
        tables = reference.gamma_tables()
        assert tables["V"][(30, 10)][(10,)] == 111.5
        assert tables["II"][(6, 2)][(1, 1)] == 3.770
        assert all((7, 2) not in table for table in tables.values())

    def test_all_values_positive(self):
        for table in reference.gamma_tables().values():
            for entries in table.values():
                assert all(v >= 2.0 for v in entries.values())
