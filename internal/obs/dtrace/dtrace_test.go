package dtrace

import (
	"encoding/json"
	"testing"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"off", Mode{Level: LevelOff}, true},
		{"", Mode{Level: LevelOff}, true},
		{"full", Mode{Level: LevelFull}, true},
		{"sampled:1", Mode{}, false},
		{"sampled:100", Mode{}, false},
		{"verbose", Mode{}, false},
	} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseMode(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseMode(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestModeRoundTrip(t *testing.T) {
	for _, s := range []string{"off", "full"} {
		m, err := ParseMode(s)
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", s, err)
		}
		if m.String() != s {
			t.Errorf("ParseMode(%q).String() = %q", s, m.String())
		}
	}
}

func TestReasonJSONRoundTrip(t *testing.T) {
	for r := Accepted; r < numReasons; r++ {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal %v: %v", r, err)
		}
		var back Reason
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != r {
			t.Errorf("round trip %v -> %s -> %v", r, b, back)
		}
	}
	var bad Reason
	if err := json.Unmarshal([]byte(`"not_a_reason"`), &bad); err == nil {
		t.Error("unmarshal of an unknown reason succeeded")
	}
	if _, err := json.Marshal(numReasons); err == nil {
		t.Error("marshal of an out-of-range reason succeeded")
	}
}

func TestReasonsCoverEnum(t *testing.T) {
	names := reasonNames
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" {
			t.Fatalf("reason %d has no name", i)
		}
		if seen[n] {
			t.Fatalf("duplicate reason name %q", n)
		}
		seen[n] = true
		if r, err := ParseReason(n); err != nil || r != Reason(i) {
			t.Errorf("ParseReason(%q) = %v, %v; want %d", n, r, err, i)
		}
	}
}

func TestNilTracerNoAlloc(t *testing.T) {
	var dt *Tracer
	if n := testing.AllocsPerRun(200, func() {
		dt.Emit(Record{Kind: "cand", Node: 7, Outcome: Dominated})
	}); n != 0 {
		t.Fatalf("nil tracer Emit allocates %v times per call, want 0", n)
	}
}

func TestNewOffIsNil(t *testing.T) {
	if New(Mode{Level: LevelOff}, func(*Record) {}) != nil {
		t.Error("New(off) is not the nil tracer")
	}
	if New(Mode{Level: LevelFull}, nil) != nil {
		t.Error("New(full, nil sink) is not the nil tracer")
	}
}

// TestFullModeKeepsEverything: every record reaches the sink, in order,
// with dense sequence numbers.
func TestFullModeKeepsEverything(t *testing.T) {
	var got []Record
	dt := New(Mode{Level: LevelFull}, func(r *Record) { got = append(got, *r) })
	for i := 0; i < 5; i++ {
		dt.Emit(Record{Kind: "cand", Node: i, Outcome: NoComparisonUnit})
	}
	if len(got) != 5 {
		t.Fatalf("full mode kept %d records, want 5", len(got))
	}
	for i, r := range got {
		if r.Node != i || r.Seq != int64(i) {
			t.Errorf("record %d: node %d seq %d, want %d and %d", i, r.Node, r.Seq, i, i)
		}
	}
}
