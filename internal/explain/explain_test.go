package explain_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"compsynth/internal/explain"
	"compsynth/internal/obs"
	"compsynth/internal/obs/dtrace"
)

// writeRecorded records a run_start plus the given decision records through
// a real flight recorder (plain NDJSON) and returns the file path.
func writeRecorded(t *testing.T, recs []dtrace.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ev.ndjson")
	r, err := obs.NewRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	r.RunStart("sft", []string{"-k", "5"})
	for i := range recs {
		r.Decision(&recs[i])
	}
	r.RunEnd(1, "")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func sampleRecords() []dtrace.Record {
	return []dtrace.Record{
		{Seq: 0, Pass: 1, Kind: "cand", Node: 9, Name: "g9", Outcome: dtrace.NoComparisonUnit, Cut: []int{1, 2, 3}, Width: 3},
		{Seq: 1, Pass: 1, Kind: "cand", Node: 9, Name: "g9", Outcome: dtrace.Accepted, Cut: []int{1, 2}, Width: 2, GateSave: 2},
		{Seq: 2, Pass: 1, Kind: "gate", Node: 9, Name: "g9", Outcome: dtrace.Replaced, GateSave: 2},
		{Seq: 3, Pass: 1, Kind: "gate", Node: 7, Name: "g7", Outcome: dtrace.Kept},
		{Seq: 4, Pass: 2, Kind: "gate", Node: 9, Name: "g9", Outcome: dtrace.SkippedDead},
		{Seq: 5, Pass: 2, Kind: "cand", Node: 7, Name: "g7", Outcome: dtrace.Dominated, GateSave: 1},
		{Seq: 6, Pass: 2, Kind: "cand", Node: 7, Name: "g7", Outcome: dtrace.ObjectiveWorse},
		{Seq: 7, Pass: 2, Kind: "gate", Node: 7, Name: "g7", Outcome: dtrace.Kept},
	}
}

// TestLoadFramedStream reads the hash-chained framing earlier versions
// wrote: each event wrapped in a seq/chain envelope, with batch and final
// seal lines that carry no event.
func TestLoadFramedStream(t *testing.T) {
	framed := `{"seq":0,"chain":"b428b4c73e5a00151d56c07d3cb1f11ca3e9a1caf474cf6e1e52d4f536cf71d1","ev":{"t":"run_start","ms":0.004,"tool":"sft","args":["-k","5"]}}
{"seq":1,"chain":"31cb8cc179526d4403b1784b163c23a070905f375e7a82aa318a2a04358c77a0","ev":{"t":"dtrace","ms":1.496,"d":{"seq":0,"pass":1,"kind":"cand","node":10,"name":"23","outcome":"dominated","cut":[7,8],"width":2,"paths_before":6,"paths_after":6,"spec":"cmp{n=2 perm=[0 1] L=0 U=2}"}}}
{"seq":2,"chain":"4bb18aa3f388ad6f6721ba87fd1b76c5488edd6b8ae4bc1627f40404d350a990","ev":{"t":"dtrace","ms":1.524,"d":{"seq":1,"pass":1,"kind":"cand","node":10,"name":"23","outcome":"accepted","cut":[1,4,6],"width":3,"paths_before":6,"paths_after":4,"spec":"cmp{n=3 perm=[2 0 1] L=5 U=7}"}}}
{"seq":3,"chain":"70f96766557695c075942f5f4bb4b427f84afb9d686d425f38674dbadffe23fd","root":"59d285376f6819fdd046f5cad81c04b250a392bf017a9278dd53bd1422dd9aac","batch":0,"first":0,"last":2}
{"seq":4,"chain":"9e5618ac8ad6d9fc7ab94efed9f0f7130e3df068988c40ddec171c194dde2905","ev":{"t":"run_end","ms":2.1,"dur_ms":2.1}}
{"seq":5,"chain":"1191f7966038d02ddb1f10d927a38932652fb45088886fb8ef1a26a4e4644f1b","final_root":"fce24d1168d51c059a624d283d43118fd493b90682348e40fc1c83882997cdd0","batches":1,"records":4}
`
	path := filepath.Join(t.TempDir(), "framed.ndjson")
	if err := os.WriteFile(path, []byte(framed), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := explain.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tool != "sft" || len(tr.Args) != 2 {
		t.Errorf("run identity = %q %v, want sft [-k 5]", tr.Tool, tr.Args)
	}
	if len(tr.Records) != 2 || tr.Records[0].Outcome != dtrace.Dominated ||
		tr.Records[1].Outcome != dtrace.Accepted || tr.Records[1].Name != "23" {
		t.Fatalf("framed stream loaded %+v", tr.Records)
	}
}

func TestLoadPlainStream(t *testing.T) {
	// Plain NDJSON as the recorder writes it, from fixed text.
	plain := `{"t":"run_start","ms":0,"tool":"sft","args":["-k","5"]}
{"t":"dtrace","ms":1,"d":{"seq":0,"pass":1,"kind":"gate","node":3,"name":"g3","outcome":"kept"}}
{"t":"run_end","ms":2,"dur_ms":2}
`
	path := filepath.Join(t.TempDir(), "plain.ndjson")
	if err := os.WriteFile(path, []byte(plain), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := explain.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tool != "sft" {
		t.Errorf("tool = %q, want sft", tr.Tool)
	}
	if len(tr.Records) != 1 || tr.Records[0].Outcome != dtrace.Kept {
		t.Fatalf("plain stream loaded %+v", tr.Records)
	}
}

func TestLoadRejectsNonRecording(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("{}\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := explain.Load(path); err == nil {
		t.Error("loading an event-free file succeeded, want error")
	}
}

func TestWhyByNameAndID(t *testing.T) {
	tr, err := explain.Load(writeRecorded(t, sampleRecords()))
	if err != nil {
		t.Fatal(err)
	}
	byName := tr.Why("g9")
	if len(byName) != 4 {
		t.Fatalf("Why(g9) returned %d records, want 4", len(byName))
	}
	byID := tr.Why("9")
	if len(byID) != len(byName) {
		t.Errorf("Why(9) returned %d records, Why(g9) %d — id lookup diverges", len(byID), len(byName))
	}
	if tr.Why("nosuch") != nil {
		t.Error("Why(nosuch) returned records")
	}
}

func TestReasonCounts(t *testing.T) {
	tr, err := explain.Load(writeRecorded(t, sampleRecords()))
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.ReasonCounts()
	want := map[[2]int]int{} // (pass, outcome) -> count
	for _, r := range sampleRecords() {
		want[[2]int{r.Pass, int(r.Outcome)}]++
	}
	if len(counts) != len(want) {
		t.Fatalf("ReasonCounts has %d rows, want %d", len(counts), len(want))
	}
	lastPass := 0
	for _, rc := range counts {
		if rc.Pass < lastPass {
			t.Error("ReasonCounts not ordered by pass")
		}
		lastPass = rc.Pass
		if got := want[[2]int{rc.Pass, int(rc.Outcome)}]; got != rc.Count {
			t.Errorf("pass %d %v: count %d, want %d", rc.Pass, rc.Outcome, rc.Count, got)
		}
	}
}

func TestFunnel(t *testing.T) {
	tr, err := explain.Load(writeRecorded(t, sampleRecords()))
	if err != nil {
		t.Fatal(err)
	}
	f := tr.Funnel()
	want := explain.Funnel{
		GatesVisited:  3, // replaced g9, kept g7 twice
		GatesSkipped:  1, // dead g9 in pass 2
		Candidates:    4,
		Realized:      3, // accepted + dominated + objective_worse
		Accepted:      1,
		GatesReplaced: 1,
	}
	if f != want {
		t.Errorf("Funnel = %+v, want %+v", f, want)
	}
}

// TestFilterPass pins the -pass CLI filter's semantics: pass <= 0 is the
// identity (same trace), a positive pass keeps exactly that pass's records
// (so ReasonCounts and Funnel tally one pass), and an absent pass yields an
// empty view.
func TestFilterPass(t *testing.T) {
	tr, err := explain.Load(writeRecorded(t, sampleRecords()))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.FilterPass(0); got != tr {
		t.Error("FilterPass(0) should return the trace unchanged")
	}
	if got := tr.FilterPass(-1); got != tr {
		t.Error("FilterPass(-1) should return the trace unchanged")
	}
	p2 := tr.FilterPass(2)
	var want int
	for _, r := range sampleRecords() {
		if r.Pass == 2 {
			want++
		}
	}
	if len(p2.Records) != want {
		t.Fatalf("FilterPass(2) kept %d records, want %d", len(p2.Records), want)
	}
	for i := range p2.Records {
		if p2.Records[i].Pass != 2 {
			t.Errorf("FilterPass(2) kept a pass-%d record", p2.Records[i].Pass)
		}
	}
	for _, rc := range p2.ReasonCounts() {
		if rc.Pass != 2 {
			t.Errorf("ReasonCounts after FilterPass(2) has pass-%d row", rc.Pass)
		}
	}
	f := p2.Funnel()
	if f.GatesVisited != 1 || f.GatesSkipped != 1 || f.Candidates != 2 {
		t.Errorf("Funnel after FilterPass(2) = %+v", f)
	}
	if got := tr.FilterPass(99); len(got.Records) != 0 {
		t.Errorf("FilterPass(99) kept %d records, want 0", len(got.Records))
	}
	if got, wantTool := tr.FilterPass(2).Tool, tr.Tool; got != wantTool {
		t.Errorf("FilterPass dropped Tool: %q != %q", got, wantTool)
	}
}

func TestDiff(t *testing.T) {
	recsA := sampleRecords()
	a, err := explain.Load(writeRecorded(t, recsA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := explain.Load(writeRecorded(t, recsA))
	if err != nil {
		t.Fatal(err)
	}
	if d := explain.Diff(a, b); len(d) != 0 {
		t.Fatalf("identical traces diff: %+v", d)
	}

	// Flip g7's final outcome and add a node only b has.
	recsB := append(sampleRecords(),
		dtrace.Record{Seq: 8, Pass: 2, Kind: "gate", Node: 7, Name: "g7", Outcome: dtrace.Replaced},
		dtrace.Record{Seq: 9, Pass: 2, Kind: "gate", Node: 11, Name: "g11", Outcome: dtrace.Kept},
	)
	b2, err := explain.Load(writeRecorded(t, recsB))
	if err != nil {
		t.Fatal(err)
	}
	d := explain.Diff(a, b2)
	if len(d) != 2 {
		t.Fatalf("diff has %d entries, want 2: %+v", len(d), d)
	}
	if d[0].Node != "g11" || d[0].AOk || !d[0].BOk {
		t.Errorf("diff[0] = %+v, want g11 present only in b", d[0])
	}
	if d[1].Node != "g7" || d[1].A != dtrace.Kept || d[1].B != dtrace.Replaced {
		t.Errorf("diff[1] = %+v, want g7 kept->replaced", d[1])
	}
}

func TestExportCanonical(t *testing.T) {
	recs := sampleRecords()
	tr, err := explain.Load(writeRecorded(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) != len(recs) {
		t.Fatalf("export has %d lines, want %d", len(lines), len(recs))
	}
	// Export strips the event envelope and its timings: the same records
	// recorded a second time export byte-identically.
	tr2, err := explain.Load(writeRecorded(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := tr2.Export(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("exports of identical record sets differ")
	}
}
