package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// quickCfg keeps experiment smoke tests fast while preserving the shapes.
func quickCfg() Config {
	return Config{
		TopicDocs: 10000, ProductDocs: 10000, Events: 6000,
		TopicPositiveRate: 0.05, ProductPositiveRate: 0.05,
		DevFraction: 1.0 / 6, TestFraction: 1.0 / 5,
		LabelModelSteps: 400, LRIterations: 12000, Seed: 7,
	}
}

func TestTable1Shapes(t *testing.T) {
	res, err := Table1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	topic, product := res.Rows[0], res.Rows[1]
	if topic.NumLFs != 10 || product.NumLFs != 8 {
		t.Errorf("LF counts %d/%d, want 10/8", topic.NumLFs, product.NumLFs)
	}
	// Table 1 shape: positive rates land near the configured skew.
	if topic.PositiveRate > 0.1 || product.PositiveRate > 0.1 {
		t.Errorf("positive rates %v/%v too high", topic.PositiveRate, product.PositiveRate)
	}
	if !strings.Contains(res.Report(), "Table 1") {
		t.Error("report missing title")
	}
}

func TestTable2Shapes(t *testing.T) {
	res, err := Table2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.DryBell {
		task := res.DryBell[i].Task
		// Shape: DryBell lift over the dev baseline is positive on both
		// tasks (paper: +17.5% topic, +5.2% product).
		if res.DryBell[i].Relative.Lift <= 0 {
			t.Errorf("%s: DryBell lift %.3f, want > 0", task, res.DryBell[i].Relative.Lift)
		}
		// Shape: the discriminative classifier beats the generative model
		// (it generalizes beyond the LFs).
		if res.DryBell[i].Absolute.F1 <= res.GenOnly[i].Absolute.F1 {
			t.Errorf("%s: DryBell F1 %.3f should beat gen-only %.3f",
				task, res.DryBell[i].Absolute.F1, res.GenOnly[i].Absolute.F1)
		}
	}
	if !strings.Contains(res.Report(), "Snorkel DryBell") {
		t.Error("report malformed")
	}
}

func TestTable3Shapes(t *testing.T) {
	res, err := Table3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i, lift := range res.LiftFromNonServable {
		// Shape: adding non-servable resources helps substantially
		// (paper: +36.4% and +68.2%).
		if lift <= 0.05 {
			t.Errorf("task %d: non-servable lift %.3f, want > 0.05", i, lift)
		}
	}
	if !strings.Contains(res.Report(), "Non-Servable") {
		t.Error("report malformed")
	}
}

func TestTable4Shapes(t *testing.T) {
	res, err := Table4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Shape: the generative model helps on average (paper: +4.8% average,
	// with small per-task lifts), and never hurts catastrophically.
	avg := 0.0
	for _, lift := range res.LiftFromGenerative {
		avg += lift
	}
	avg /= float64(len(res.LiftFromGenerative))
	if avg <= 0 {
		t.Errorf("average generative lift %.3f, want > 0", avg)
	}
	if !strings.Contains(res.Report(), "Equal Weights") {
		t.Error("report malformed")
	}
}

func TestFigure2Shapes(t *testing.T) {
	res, err := Figure2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	total := func(app string) int {
		n := 0
		for _, c := range res.Census[app] {
			n += c
		}
		return n
	}
	if total("topic") != 10 || total("product") != 8 || total("events") != 140 {
		t.Errorf("census totals %d/%d/%d, want 10/8/140",
			total("topic"), total("product"), total("events"))
	}
	if !strings.Contains(res.Report(), "Figure 2") {
		t.Error("report malformed")
	}
}

func TestFigure5Shapes(t *testing.T) {
	res, err := Figure5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 2 {
		t.Fatalf("tasks = %d", len(res.Tasks))
	}
	for _, task := range res.Tasks {
		if task.DryBellRelativeF1 <= 1 {
			t.Errorf("%s: DryBell line %.3f should sit above the dev baseline", task.Task, task.DryBellRelativeF1)
		}
		if len(task.Curve) < 4 {
			t.Errorf("%s: curve has %d points", task.Task, len(task.Curve))
		}
		// Shape: the supervised curve broadly rises with labels (compare
		// first and last point).
		first, last := task.Curve[0], task.Curve[len(task.Curve)-1]
		if last.RelativeF1 <= first.RelativeF1 {
			t.Errorf("%s: supervised curve not rising (%.3f -> %.3f)",
				task.Task, first.RelativeF1, last.RelativeF1)
		}
	}
	if !strings.Contains(res.Report(), "Figure 5") {
		t.Error("report malformed")
	}
}

func TestFigure6AndEventsShapes(t *testing.T) {
	fig, err := Figure6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Shape: Logical-OR piles mass at the extremes; DryBell is smoother.
	if fig.LogicalOR.MassAtExtremes() <= fig.DryBell.MassAtExtremes() {
		t.Errorf("OR extremes %.3f should exceed DryBell %.3f",
			fig.LogicalOR.MassAtExtremes(), fig.DryBell.MassAtExtremes())
	}
	if !strings.Contains(fig.Report(), "Figure 6") {
		t.Error("report malformed")
	}

	ev, err := Events(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Shape: DryBell identifies more events at better quality (paper:
	// +58% events, +4.5% quality).
	if ev.MoreEventsIdentified <= 0 {
		t.Errorf("more events identified = %+.3f, want > 0", ev.MoreEventsIdentified)
	}
	if ev.DryBell.F1 <= ev.LogicalOR.F1 {
		t.Errorf("DryBell F1 %.3f should beat OR %.3f", ev.DryBell.F1, ev.LogicalOR.F1)
	}
	if !strings.Contains(ev.Report(), "Logical-OR") {
		t.Error("report malformed")
	}
}

// finitePositive is the structural check on a measured rate: the experiment
// ran and divided by a real duration. How large the rate is — and every
// ratio between two of them — is wall clock, which tier-1 must not assert
// on a loaded host; bench/ owns timing.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) } // NaN > 0 is false

func TestP1Shape(t *testing.T) {
	res, err := P1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"sampling-free steps/s":    res.SamplingFreeStepsPerSec,
		"sampling-free examples/s": res.SamplingFreeExamplesPerSec,
		"gibbs examples/s":         res.GibbsExamplesPerSec,
		"speedup":                  res.Speedup,
	} {
		if !finitePositive(v) {
			t.Errorf("%s = %v, want finite and positive", name, v)
		}
	}
	report := res.Report()
	for _, line := range []string{"sampling-free:", "gibbs sampler:", "speedup per gradient step:"} {
		if !strings.Contains(report, line) {
			t.Errorf("report lacks %q:\n%s", line, report)
		}
	}
}

func TestP2Shape(t *testing.T) {
	cfg := quickCfg()
	cfg.TopicDocs = 4000
	res, err := P2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Examples != cfg.TopicDocs || res.CPUs <= 0 {
		t.Errorf("examples = %d, CPUs = %d", res.Examples, res.CPUs)
	}
	report := res.Report()
	for _, par := range []int{1, 2, 4, 8} {
		if !finitePositive(res.PerParallelism[par]) {
			t.Errorf("parallelism %d rate = %v, want finite and positive", par, res.PerParallelism[par])
		}
		if line := fmt.Sprintf("parallelism %d:", par); !strings.Contains(report, line) {
			t.Errorf("report lacks %q:\n%s", line, report)
		}
	}
	if !finitePositive(res.ProjectedMinutesFor6M) {
		t.Errorf("projection = %v, want finite and positive", res.ProjectedMinutesFor6M)
	}
	if !strings.Contains(report, "6.5M") {
		t.Errorf("report lacks the 6.5M projection:\n%s", report)
	}
}
