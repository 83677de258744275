package bench

import "testing"

// TestTenantsQuick pins the acceptance invariants of the multi-tenant
// table: shapes shared across tenants produce a nonzero cross-tenant
// hit rate, the singleflight build counts are exact, and a warm start
// from the persisted cache builds nothing.
func TestTenantsQuick(t *testing.T) {
	tb := Tenants(Options{Quick: true})
	const p, tenants, shapes = 4, 8, 2
	rows := map[string]int{}
	for i, row := range tb.Rows {
		rows[row.Labels[0]] = i
	}
	num := func(row int, name string) float64 { return val(t, tb, row, name) }

	cold := rows["cold distinct"]
	if got := num(cold, "builds"); got != tenants*shapes*p {
		t.Errorf("cold distinct builds = %g, want %d", got, tenants*shapes*p)
	}
	if got := num(cold, "hit rate"); got != 0 {
		t.Errorf("cold distinct hit rate = %g%%, want 0 (nothing shareable)", got)
	}

	shared := rows["cold shared"]
	if got := num(shared, "builds"); got != shapes*p {
		t.Errorf("cold shared builds = %g, want %d (singleflight)", got, shapes*p)
	}
	if got := num(shared, "hit rate"); got <= 0 {
		t.Errorf("cold shared hit rate = %g%%, want > 0", got)
	}

	warm := rows["warm disk"]
	if got := num(warm, "builds"); got != 0 {
		t.Errorf("warm disk builds = %g, want 0", got)
	}
	if got := num(warm, "disk hits"); got != shapes*p {
		t.Errorf("warm disk disk hits = %g, want %d", got, shapes*p)
	}
	if got := num(warm, "hit rate"); got != 100 {
		t.Errorf("warm disk hit rate = %g%%, want 100", got)
	}
}
