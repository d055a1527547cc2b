// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run all|fig1|table2|fig5|fig6|table3|table4|table9|fig7|table5|table6|table7|table8|overhead|table10]
//
// Each experiment prints the same rows/series the paper reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"negativaml/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment to run (comma-separated), or 'all'")
	flag.Parse()

	want := map[string]bool{}
	for _, k := range strings.Split(*run, ",") {
		want[strings.TrimSpace(k)] = true
	}
	all := want["all"]
	s := experiments.NewSuite()

	step := func(name string, f func() (string, error)) {
		if !all && !want[name] {
			return
		}
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	step("fig1", func() (string, error) {
		rows, err := experiments.Figure1(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure1(rows), nil
	})
	step("table2", func() (string, error) {
		rows, err := experiments.Table2(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderTable2(rows), nil
	})
	step("fig5", func() (string, error) {
		d, err := experiments.Figure5(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure5(d), nil
	})
	step("fig6", func() (string, error) {
		d, err := experiments.Figure6(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure6(d), nil
	})
	step("table3", func() (string, error) {
		rows, err := experiments.Table3(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderTable3(rows), nil
	})
	step("table4", func() (string, error) {
		t, err := experiments.Table4(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderJaccard(t, "Table 4"), nil
	})
	step("table9", func() (string, error) {
		t, err := experiments.Table9(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderJaccard(t, "Table 9"), nil
	})
	step("fig7", func() (string, error) {
		rows, err := experiments.Figure7(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure7(rows), nil
	})
	step("table5", func() (string, error) {
		rows, err := experiments.Table5(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderRuntime("Table 5: runtime performance (T4)", rows), nil
	})
	step("table6", func() (string, error) {
		rows, err := experiments.Table6(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderTable6(rows), nil
	})
	step("table7", func() (string, error) {
		rows, err := experiments.Table7(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderRuntime("Table 7: H100 runtime, eager vs lazy", rows), nil
	})
	step("table8", func() (string, error) {
		rows, err := experiments.Table8(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderTable8(rows), nil
	})
	step("overhead", func() (string, error) {
		d, err := experiments.Overhead(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderOverhead(d), nil
	})
	step("table10", func() (string, error) {
		rows, err := experiments.Table10(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderTable10(rows), nil
	})
	step("ablation", func() (string, error) {
		d, err := experiments.Ablation(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderAblation(d), nil
	})
	step("coverage", func() (string, error) {
		pts, err := experiments.CoverageSaturation(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderCoverage(pts), nil
	})
	step("usedbloat", func() (string, error) {
		rows, err := experiments.UsedBloat(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderUsedBloat(rows), nil
	})
}
