package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result in the shape both renderers read:
// one row per measured cell, one column per field. Every experiment's
// typed carrier (FigureData, MapFigureData, WatchData, ServeData,
// LatencyReport) exposes its Table.
type Table struct {
	// ID names the experiment; it leads every CSV row.
	ID string
	// Title and Settings head the text rendering.
	Title    string
	Settings string
	Columns  []Column
	Rows     []Row
}

// Column is one field of a Table.
type Column struct {
	// Name is the CSV header field, Heading the text heading.
	Name    string
	Heading string
	// Format is the fmt verb both renderers apply to the column's values.
	Format string
	// Key marks a column that identifies the cell (its sweep
	// coordinates); only key columns carry values in an infeasible row.
	Key bool
}

// Row is one measured cell.
type Row struct {
	// Values holds one value per column; non-key values are nil when
	// Err is set.
	Values []any
	// Err is non-nil when the cell is infeasible (e.g. RF beyond 58
	// readers).
	Err error
}

// field declares a column together with how to read its value from an
// experiment's cell type.
type field[C any] struct {
	Column
	value func(C) any
}

// key and metric build the two kinds of field.
func key[C any](name, heading, format string, value func(C) any) field[C] {
	return field[C]{Column{Name: name, Heading: heading, Format: format, Key: true}, value}
}

func metric[C any](name, heading, format string, value func(C) any) field[C] {
	return field[C]{Column{Name: name, Heading: heading, Format: format}, value}
}

// newTable evaluates fields over cells; cellErr reports a cell's
// infeasibility (nil for experiments whose cells are always measured).
func newTable[C any](id, title, settings string, fields []field[C], cells []C, cellErr func(C) error) Table {
	t := Table{ID: id, Title: title, Settings: settings}
	for _, f := range fields {
		t.Columns = append(t.Columns, f.Column)
	}
	for _, c := range cells {
		var row Row
		if cellErr != nil {
			row.Err = cellErr(c)
		}
		row.Values = make([]any, len(fields))
		for i, f := range fields {
			if f.Key || row.Err == nil {
				row.Values[i] = f.value(c)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// WriteText renders the table in long form: a title, the settings line,
// then one line per cell with every column aligned under its heading.
// An infeasible cell prints n/a in its non-key columns.
func (t Table) WriteText(w io.Writer) error {
	lines := [][]string{make([]string, len(t.Columns))}
	for j, c := range t.Columns {
		lines[0][j] = c.Heading
	}
	for _, r := range t.Rows {
		line := make([]string, len(t.Columns))
		for j, c := range t.Columns {
			line[j] = "n/a"
			if c.Key || r.Err == nil {
				line[j] = fmt.Sprintf(c.Format, r.Values[j])
			}
		}
		lines = append(lines, line)
	}
	width := make([]int, len(t.Columns))
	for _, line := range lines {
		for j, s := range line {
			width[j] = max(width[j], len([]rune(s)))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s\n\n", t.ID, t.Title, t.Settings)
	for _, line := range lines {
		for j, s := range line {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strings.Repeat(" ", width[j]-len([]rune(s))))
			b.WriteString(s)
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes a header line, then one line per feasible cell. The
// first field of every line is the table ID, under the header "figure";
// infeasible cells are skipped.
func (t Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("figure")
	for _, c := range t.Columns {
		b.WriteString("," + c.Name)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		if r.Err != nil {
			continue
		}
		b.WriteString(t.ID)
		for j, c := range t.Columns {
			b.WriteString("," + fmt.Sprintf(c.Format, r.Values[j]))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
