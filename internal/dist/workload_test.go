package dist

import "testing"

func TestTable1Catalog(t *testing.T) {
	wls := Table1()
	if len(wls) != 6 {
		t.Fatalf("Table 1 has %d workloads, want 6", len(wls))
	}
	seen := map[string]bool{}
	for _, wl := range wls {
		if wl.Dim <= 0 || wl.BatchSize <= 0 || wl.Epochs <= 0 {
			t.Errorf("%s: degenerate dimensions %+v", wl.Name, wl)
		}
		// The figures' iteration model derives compute time from this
		// column, which it divides by.
		if wl.CommOverhead <= 0 || wl.CommOverhead >= 1 {
			t.Errorf("%s: comm overhead %v outside (0, 1)", wl.Name, wl.CommOverhead)
		}
		if seen[wl.Name] {
			t.Errorf("duplicate workload %q", wl.Name)
		}
		seen[wl.Name] = true
		got, err := WorkloadByName(wl.Name)
		if err != nil {
			t.Errorf("WorkloadByName(%q): %v", wl.Name, err)
		}
		if got.Dim != wl.Dim {
			t.Errorf("WorkloadByName(%q) roundtrip mismatch", wl.Name)
		}
	}
	if ptb, _ := WorkloadByName("lstm-ptb"); ptb.Dim != 66_034_000 || ptb.CommOverhead != 0.94 {
		t.Errorf("lstm-ptb catalog entry drifted: %+v", ptb)
	}
	if _, err := WorkloadByName("bogus"); err == nil {
		t.Error("unknown workload should error")
	}
	// Table1 returns a copy: mutating it must not corrupt the catalog.
	wls[0].Dim = 1
	if again := Table1(); again[0].Dim == 1 {
		t.Error("Table1 exposed internal catalog storage")
	}
}
