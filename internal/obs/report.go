package obs

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"time"

	"compsynth/internal/circuit"
	"compsynth/internal/metric"
	"compsynth/internal/paths"
)

// EnvInfo records where a run happened (for report provenance).
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname,omitempty"`
}

// Environment captures the current process environment.
func Environment() EnvInfo {
	host, _ := os.Hostname()
	return EnvInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Hostname:   host,
	}
}

// CircuitInfo is the report-side summary of a netlist. Paths is 0 when the
// count overflows uint64 (PathsOverflow is then true).
type CircuitInfo struct {
	Name          string `json:"name,omitempty"`
	Inputs        int    `json:"inputs"`
	Outputs       int    `json:"outputs"`
	Gates         int    `json:"gates"`
	Equiv2        int    `json:"equiv2"`
	Depth         int    `json:"depth"`
	Paths         uint64 `json:"paths,omitempty"`
	PathsOverflow bool   `json:"paths_overflow,omitempty"`
}

// InfoOf summarizes a circuit, including its Procedure 1 path count.
func InfoOf(c *circuit.Circuit) CircuitInfo {
	st := c.Stats()
	info := CircuitInfo{
		Name:    c.Name,
		Inputs:  st.Inputs,
		Outputs: st.Outputs,
		Gates:   st.Gates,
		Equiv2:  st.Equiv2,
		Depth:   st.Depth,
	}
	if n, err := paths.Count(c); err == nil {
		info.Paths = n
	} else {
		info.PathsOverflow = true
	}
	return info
}

// Report is the JSON artifact of one tool run.
type Report struct {
	Tool          string          `json:"tool"`
	Args          []string        `json:"args,omitempty"`
	Start         time.Time       `json:"start"`
	DurationMS    float64         `json:"duration_ms"`
	Env           EnvInfo         `json:"env"`
	CircuitBefore *CircuitInfo    `json:"circuit_before,omitempty"`
	CircuitAfter  *CircuitInfo    `json:"circuit_after,omitempty"`
	Results       map[string]any  `json:"results,omitempty"`
	Spans         []SpanJSON      `json:"spans,omitempty"`
	Metrics       metric.Snapshot `json:"metrics"`
	Error         string          `json:"error,omitempty"`
}

// AddResult attaches a named result payload (anything JSON-marshalable,
// e.g. a resynth.Result) to the report.
func (r *Report) AddResult(name string, v any) {
	if r.Results == nil {
		r.Results = map[string]any{}
	}
	r.Results[name] = v
}

// WriteJSON writes the indented JSON encoding of the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (0644).
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
