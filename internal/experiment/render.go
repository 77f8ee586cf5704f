package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// figureAlgorithmOrder fixes the column order in reports.
var figureAlgorithmOrder = []string{
	AlgoGreedy, AlgoSCBG, AlgoProximity, AlgoMaxDegree, AlgoRandom, AlgoNoBlocking,
}

// panelAlgorithms returns the panel's algorithms in canonical order.
func panelAlgorithms(p Panel) []string {
	var out []string
	for _, name := range figureAlgorithmOrder {
		if _, ok := p.Series[name]; ok {
			out = append(out, name)
		}
	}
	// Any unknown algorithms go last, sorted.
	var extra []string
	for name := range p.Series {
		known := false
		for _, k := range figureAlgorithmOrder {
			if k == name {
				known = true
				break
			}
		}
		if !known {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// WriteFigure renders a figure's hop series as aligned text tables, one per
// panel — the textual equivalent of the paper's log-scale plots.
func WriteFigure(w io.Writer, fr *FigureResult) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", fr.Config.Name, fr.Config.Title); err != nil {
		return err
	}
	for _, panel := range fr.Panels {
		algos := panelAlgorithms(panel)
		if _, err := fmt.Fprintf(w, "\n|R| = %d (%.0f%% of |C|), |B| = %d, budget = %d protectors\n",
			panel.NumRumors, panel.RumorFraction*100, panel.NumEnds, panel.Budget); err != nil {
			return err
		}
		tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "hop\t%s\t\n", strings.Join(algos, "\t"))
		n := 0
		for _, a := range algos {
			if len(panel.Series[a]) > n {
				n = len(panel.Series[a])
			}
		}
		for h := 0; h < n; h++ {
			fmt.Fprintf(tw, "%d\t", h)
			for _, a := range algos {
				s := panel.Series[a]
				if h < len(s) {
					fmt.Fprintf(tw, "%.1f\t", s[h])
				} else {
					fmt.Fprint(tw, "\t")
				}
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// WriteFigureCSV renders a figure as CSV rows:
// name,fraction,algorithm,hop,infected.
func WriteFigureCSV(w io.Writer, fr *FigureResult) error {
	if _, err := fmt.Fprintln(w, "experiment,rumor_fraction,algorithm,hop,mean_infected"); err != nil {
		return err
	}
	for _, panel := range fr.Panels {
		for _, a := range panelAlgorithms(panel) {
			for h, v := range panel.Series[a] {
				if _, err := fmt.Fprintf(w, "%s,%g,%s,%d,%.3f\n",
					fr.Config.Name, panel.RumorFraction, a, h, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteTable renders a Table I block in the paper's layout.
func WriteTable(w io.Writer, tr *TableResult) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", tr.Config.Name, tr.Config.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "|R|\t(frac)\t|B|\tSCBG\tProximity\tMaxDegree\t")
	for _, row := range tr.Rows {
		notes := ""
		if row.ProximityShort > 0 {
			notes += fmt.Sprintf(" [proximity short in %d/%d trials]", row.ProximityShort, row.Trials)
		}
		if row.MaxDegreeShort > 0 {
			notes += fmt.Sprintf(" [maxdegree short in %d/%d trials]", row.MaxDegreeShort, row.Trials)
		}
		fmt.Fprintf(tw, "%d\t%.0f%%\t%.1f\t%.1f\t%.1f\t%.1f\t%s\n",
			row.NumRumors, row.RumorFraction*100, row.MeanEnds,
			row.SCBG, row.Proximity, row.MaxDegree, notes)
	}
	return tw.Flush()
}

// WriteTableCSV renders a Table I block as CSV.
func WriteTableCSV(w io.Writer, tr *TableResult) error {
	if _, err := fmt.Fprintln(w, "experiment,rumor_fraction,num_rumors,mean_ends,scbg,proximity,maxdegree"); err != nil {
		return err
	}
	for _, row := range tr.Rows {
		if _, err := fmt.Fprintf(w, "%s,%g,%d,%.2f,%.2f,%.2f,%.2f\n",
			tr.Config.Name, row.RumorFraction, row.NumRumors, row.MeanEnds,
			row.SCBG, row.Proximity, row.MaxDegree); err != nil {
			return err
		}
	}
	return nil
}
