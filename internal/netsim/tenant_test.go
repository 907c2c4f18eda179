package netsim

import (
	"context"
	"errors"
	"testing"
)

// --- splitByShares ---------------------------------------------------------

func sharesFor(weights ...int) []TenantShare {
	out := make([]TenantShare, len(weights))
	for i, w := range weights {
		out[i] = TenantShare{ID: TenantID(rune('a' + i)), Bytes: w}
	}
	return out
}

// TestSplitBySharesExact: whatever the weights, the parts sum exactly to
// the total — the invariant the per-tenant columns' exhaustiveness rests
// on — and each part is within one unit of its ideal proportional value.
func TestSplitBySharesExact(t *testing.T) {
	cases := []struct {
		total   int
		weights []int
	}{
		{100, []int{1, 1}},
		{101, []int{1, 1}},
		{7, []int{3, 5, 9}},
		{1, []int{1000, 1}},
		{0, []int{4, 4}},
		{1000003, []int{7, 11, 13, 17}},
		{55, []int{0, 10}},
		{55, []int{10, 0}},
		{9, []int{1, 1, 1, 1, 1, 1, 1}},
	}
	for _, tc := range cases {
		shares := sharesFor(tc.weights...)
		parts := splitByShares(tc.total, shares)
		sum, weight := 0, 0
		for _, w := range tc.weights {
			weight += w
		}
		for i, p := range parts {
			sum += p
			ideal := float64(tc.total) * float64(tc.weights[i]) / float64(weight)
			if d := float64(p) - ideal; d > 1 || d < -1 {
				t.Errorf("split(%d, %v)[%d] = %d, ideal %.2f (off by more than one unit)",
					tc.total, tc.weights, i, p, ideal)
			}
		}
		if sum != tc.total {
			t.Errorf("split(%d, %v) sums to %d", tc.total, tc.weights, sum)
		}
	}
}

// TestSplitBySharesDeterministic: equal inputs produce equal splits, and
// remainder ties go to the earliest share.
func TestSplitBySharesDeterministic(t *testing.T) {
	shares := sharesFor(1, 1, 1)
	a := splitByShares(4, shares)
	b := splitByShares(4, shares)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split not deterministic: %v vs %v", a, b)
		}
	}
	// 4 over three equal weights: 1 each plus one leftover unit, which the
	// tie break hands to the first share.
	if a[0] != 2 || a[1] != 1 || a[2] != 1 {
		t.Errorf("split(4, [1 1 1]) = %v, want [2 1 1] (tie to earliest)", a)
	}
}

// TestSplitBySharesDegenerate: all-zero (or negative) weights collapse to
// the first share so the sum still balances.
func TestSplitBySharesDegenerate(t *testing.T) {
	got := splitByShares(42, sharesFor(0, 0, 0))
	if got[0] != 42 || got[1] != 0 || got[2] != 0 {
		t.Errorf("all-zero weights: split = %v, want [42 0 0]", got)
	}
	got = splitByShares(10, []TenantShare{{ID: "x", Bytes: -5}, {ID: "y", Bytes: 5}})
	if got[0] != 0 || got[1] != 10 {
		t.Errorf("negative weight clamps to zero: split = %v, want [0 10]", got)
	}
	if got := splitByShares(5, nil); len(got) != 0 {
		t.Errorf("empty shares: split = %v, want []", got)
	}
}

// --- Ledger ----------------------------------------------------------------

func TestLedgerQuotaCheck(t *testing.T) {
	l := NewLedger()
	l.SetQuota("a", 100)

	if err := l.Check("a"); err != nil {
		t.Fatalf("fresh tenant under quota: %v", err)
	}
	if err := l.Check("unlimited"); err != nil {
		t.Fatalf("unlimited tenant: %v", err)
	}
	l.Charge("a", 99)
	if err := l.Check("a"); err != nil {
		t.Fatalf("one byte of headroom left: %v", err)
	}
	l.Charge("a", 1) // exactly at quota: spent >= quota rejects
	err := l.Check("a")
	if err == nil {
		t.Fatal("tenant at quota admitted")
	}
	if !errors.Is(err, ErrOverQuota) {
		t.Errorf("quota rejection does not match ErrOverQuota: %v", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("quota rejection is not a *QuotaError: %T", err)
	}
	if qe.Tenant != "a" || qe.Spent != 100 || qe.Quota != 100 {
		t.Errorf("QuotaError = %+v, want {a 100 100}", *qe)
	}
	if got := l.Spent("a"); got != 100 {
		t.Errorf("Spent = %d, want 100", got)
	}
}

// --- context stamps --------------------------------------------------------

func TestTenantContextStamps(t *testing.T) {
	ctx := context.Background()
	if id := TenantOf(ctx); id != "" {
		t.Fatalf("unstamped ctx: tenant %q, want anonymous", id)
	}
	ctx = WithTenant(ctx, "alice")
	if id := TenantOf(ctx); id != "alice" {
		t.Fatalf("tenant = %q, want alice", id)
	}
	shares := []TenantShare{{ID: "alice", Bytes: 3}, {ID: "bob", Bytes: 5}}
	sctx := WithShares(ctx, shares)
	got := sharesOf(sctx)
	if len(got) != 2 || got[0].ID != "alice" || got[1].ID != "bob" {
		t.Fatalf("sharesOf = %v", got)
	}
	if s := sharesOf(ctx); s != nil {
		t.Fatalf("plain tenant ctx leaks shares: %v", s)
	}
}

// --- meter attribution -----------------------------------------------------

// TestMeterTenantColumnsSumToTotals drives frames under single-tenant,
// anonymous, multi-share and hedged contexts through a metered transport
// and checks the exhaustiveness invariant: per-tenant columns sum
// exactly to the link totals, all nine of them, and the ledger carries
// the same wire bytes.
func TestMeterTenantColumnsSumToTotals(t *testing.T) {
	m, err := NewMeter(DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ledger := NewLedger()
	m.SetLedger(ledger)
	if !m.tenantMode.Load() {
		t.Fatal("SetLedger did not arm tenant mode")
	}
	tr := Serve(echoHandler{})
	c := NewMetered(tr, m)
	defer c.Close()

	frame := func(n int) []byte { return make([]byte, n) }
	ctxs := []context.Context{
		WithTenant(context.Background(), "alice"),
		WithTenant(context.Background(), "bob"),
		context.Background(), // anonymous lane
		WithShares(context.Background(), []TenantShare{{ID: "alice", Bytes: 70}, {ID: "bob", Bytes: 30}}),
		WithShares(context.Background(), []TenantShare{{ID: "alice", Bytes: 1}, {ID: "bob", Bytes: 1}, {ID: "", Bytes: 1}}),
		WithHedged(WithTenant(context.Background(), "bob")),
		WithHedged(WithShares(context.Background(), []TenantShare{{ID: "alice", Bytes: 2}, {ID: "bob", Bytes: 1}})),
	}
	sizes := []int{100, 333, 57, 1400, 901, 2999, 77}
	for i, ctx := range ctxs {
		if _, err := c.RoundTrip(ctx, frame(sizes[i])); err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
	}

	total := m.Usage()
	if total.HedgedMessages != 4 || total.HedgedWireBytes == 0 {
		t.Fatalf("hedged column not charged: %+v", total)
	}
	var sum Usage
	ids := []TenantID{"", "alice", "bob"} // every tenant ctxs stamps
	for _, id := range ids {
		sum = sum.Add(m.TenantUsage(id))
	}
	if sum != total {
		t.Errorf("tenant columns do not sum to link totals:\n sum   %+v\n total %+v", sum, total)
	}

	var ledgerSum int64
	for _, id := range ids {
		ledgerSum += ledger.Spent(id)
	}
	if ledgerSum != int64(total.WireBytes) {
		t.Errorf("ledger spend %d, link wire bytes %d", ledgerSum, total.WireBytes)
	}

	// The anonymous lane took the unstamped frame and its share of the
	// three-way envelope.
	if m.TenantUsage("") == (Usage{}) {
		t.Error("anonymous tenant has no attributed traffic")
	}
}

// TestMeterTenantModeOffIsUntouched: without EnableTenants the
// attribution path never runs — no tenant accounts exist even when
// contexts carry tenant stamps. (The byte-accounting goldens rely on the
// off state being bit-identical; this pins the cheaper observable.)
func TestMeterTenantModeOffIsUntouched(t *testing.T) {
	m, err := NewMeter(DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := Serve(echoHandler{})
	c := NewMetered(tr, m)
	defer c.Close()
	if _, err := c.RoundTrip(WithTenant(context.Background(), "alice"), make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	m.tenants.Range(func(id, _ any) bool {
		t.Errorf("tenant account %q materialized with tenant mode off", id)
		return true
	})
	if u := m.TenantUsage("alice"); u != (Usage{}) {
		t.Errorf("TenantUsage non-zero with tenant mode off: %+v", u)
	}
}
