//! Execution tables: the configuration-by-configuration history of a run,
//! laid out as a labelled grid exactly as in Section 3.2 of the paper.

use crate::error::TuringError;
use crate::machine::{RunOutcome, State, Symbol, TuringMachine};
use crate::window;
use crate::Result;
use std::fmt;

/// One cell of an execution table: the tape symbol at that position, and the
/// machine head (with its control state) if the head is parked there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Cell {
    /// Tape symbol stored in the cell.
    pub symbol: Symbol,
    /// `Some(state)` if the head is at this cell in this configuration.
    pub head: Option<State>,
}

impl Cell {
    /// A blank cell with no head.
    pub const fn blank() -> Cell {
        Cell {
            symbol: Symbol::BLANK,
            head: None,
        }
    }

    /// A cell with the given symbol and no head.
    pub const fn symbol(symbol: Symbol) -> Cell {
        Cell { symbol, head: None }
    }

    /// A cell with the given symbol and the head in the given state.
    pub const fn with_head(symbol: Symbol, state: State) -> Cell {
        Cell {
            symbol,
            head: Some(state),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.head {
            Some(q) => write!(f, "[{}|{}]", self.symbol, q),
            None => write!(f, " {} ", self.symbol),
        }
    }
}

/// The execution table of a Turing machine: row `i` is the configuration
/// before step `i`, padded with blanks to a fixed width.
///
/// For a machine halting in `s` steps the *exact* table
/// ([`ExecutionTable::of_halting`]) is the `(s+1) x (s+1)` grid used in the
/// paper; the *truncated* table ([`ExecutionTable::truncated`]) is the
/// `rows x cols` prefix of the (possibly infinite) run, which is what the
/// paper's neighbourhood generator `B` needs for machines that may not halt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionTable {
    rows: Vec<Vec<Cell>>,
}

impl ExecutionTable {
    /// Builds the exact `(s+1) x (s+1)` execution table of a machine that
    /// halts within `fuel` steps.
    ///
    /// # Errors
    ///
    /// Returns [`TuringError::FuelExhausted`] if the machine does not halt
    /// within `fuel` steps.
    pub fn of_halting(machine: &TuringMachine, fuel: u64) -> Result<ExecutionTable> {
        let steps = match machine.run(fuel) {
            RunOutcome::Halted(h) => h.steps,
            RunOutcome::OutOfFuel(_) => return Err(TuringError::FuelExhausted { fuel }),
        };
        let side = (steps + 1) as usize;
        Ok(Self::trace(machine, side, side))
    }

    /// Builds the `rows x cols` prefix of the run of `machine` (which need
    /// not halt).  If the machine halts before `rows` configurations have
    /// been produced, the halting configuration is repeated in the remaining
    /// rows, which keeps every 2-row window locally consistent.
    pub fn truncated(machine: &TuringMachine, rows: usize, cols: usize) -> ExecutionTable {
        Self::trace(machine, rows, cols)
    }

    fn trace(machine: &TuringMachine, rows: usize, cols: usize) -> ExecutionTable {
        let mut table = Vec::with_capacity(rows);
        let mut config = machine.initial_configuration();
        for _ in 0..rows {
            let mut row = Vec::with_capacity(cols);
            for col in 0..cols {
                let symbol = config.cell(col);
                let head = if config.head == col {
                    Some(config.state)
                } else {
                    None
                };
                row.push(Cell { symbol, head });
            }
            table.push(row);
            machine.step(&mut config);
        }
        ExecutionTable { rows: table }
    }

    /// Builds a table directly from rows (used by the fragment machinery).
    ///
    /// # Errors
    ///
    /// Returns an error if the rows are not all of the same non-zero width.
    pub fn from_rows(rows: Vec<Vec<Cell>>) -> Result<ExecutionTable> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(TuringError::InvalidMachine {
                reason: "an execution table needs at least one row and one column".into(),
            });
        }
        let width = rows[0].len();
        if rows.iter().any(|r| r.len() != width) {
            return Err(TuringError::InvalidMachine {
                reason: "all execution-table rows must have the same width".into(),
            });
        }
        Ok(ExecutionTable { rows })
    }

    /// Number of rows (configurations).
    pub fn height(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (tape cells represented).
    pub fn width(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// The cell at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`TuringError::IndexOutOfRange`] for indices outside the table.
    pub fn cell(&self, row: usize, col: usize) -> Result<Cell> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .copied()
            .ok_or(TuringError::IndexOutOfRange { row, col })
    }

    /// The full row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= height()`.
    pub fn row(&self, row: usize) -> &[Cell] {
        &self.rows[row]
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// The head position and state in row `row`, if the head is within the
    /// represented columns.
    pub fn head_in_row(&self, row: usize) -> Option<(usize, State)> {
        self.rows.get(row).and_then(|r| {
            r.iter()
                .enumerate()
                .find_map(|(col, c)| c.head.map(|q| (col, q)))
        })
    }

    /// Extracts the `side x side` sub-table whose top-left corner is at
    /// `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the window does not fit inside the table.
    pub fn window(&self, row: usize, col: usize, side: usize) -> Result<ExecutionTable> {
        if row + side > self.height() || col + side > self.width() {
            return Err(TuringError::IndexOutOfRange {
                row: row + side,
                col: col + side,
            });
        }
        let rows = (row..row + side)
            .map(|r| self.rows[r][col..col + side].to_vec())
            .collect();
        ExecutionTable::from_rows(rows)
    }

    /// Checks that the whole table is a valid run prefix of `machine`:
    /// row 0 is the blank initial configuration, each row has exactly one
    /// head, and every row follows from its predecessor under the machine's
    /// transition function (with the halting configuration allowed to
    /// repeat).
    pub fn is_valid_run_prefix(&self, machine: &TuringMachine) -> bool {
        if self.height() == 0 || self.width() == 0 {
            return false;
        }
        // Row 0: blank tape, head at column 0 in the start state.
        let first = &self.rows[0];
        if first[0] != Cell::with_head(Symbol::BLANK, State::START) {
            return false;
        }
        if first[1..].iter().any(|c| *c != Cell::blank()) {
            return false;
        }
        for row in &self.rows {
            if row.iter().filter(|c| c.head.is_some()).count() != 1 {
                return false;
            }
        }
        for pair in self.rows.windows(2) {
            if !window::row_follows(machine, &pair[0], &pair[1]) {
                return false;
            }
        }
        true
    }

    /// Checks the weaker *fragment* condition used for the collection
    /// `C(M, r)`: at most one head per row and every interior 2-row window
    /// consistent with the transition function (boundary columns are
    /// unconstrained because the context is unknown).
    pub fn is_locally_consistent_fragment(&self, machine: &TuringMachine) -> bool {
        for row in &self.rows {
            if row.iter().filter(|c| c.head.is_some()).count() > 1 {
                return false;
            }
        }
        for pair in self.rows.windows(2) {
            if !window::rows_fragment_consistent(machine, &pair[0], &pair[1]) {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for ExecutionTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            for cell in row {
                write!(f, "{cell}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use crate::Direction;

    fn bounce_machine() -> TuringMachine {
        // Writes 1, moves right, writes 1, moves left, halts on reading 1.
        let mut b = TuringMachine::builder("bounce", 3, 2);
        b.rule(State(0), Symbol(0), Symbol(1), Direction::Right, State(1));
        b.rule(State(1), Symbol(0), Symbol(1), Direction::Left, State(2));
        let m = b.build().unwrap();
        assert_eq!(m.running_time(100), Some(2));
        m
    }

    #[test]
    fn exact_table_is_square_and_valid() {
        let m = bounce_machine();
        let t = ExecutionTable::of_halting(&m, 100).unwrap();
        assert_eq!(t.height(), 3);
        assert_eq!(t.width(), 3);
        assert!(t.is_valid_run_prefix(&m));
        assert_eq!(t.cell(0, 0).unwrap(), Cell::with_head(Symbol(0), State(0)));
        assert_eq!(t.head_in_row(1), Some((1, State(1))));
        assert_eq!(t.head_in_row(2), Some((0, State(2))));
        assert_eq!(t.cell(2, 1).unwrap(), Cell::symbol(Symbol(1)));
    }

    #[test]
    fn of_halting_requires_halting_within_fuel() {
        let spec = zoo::infinite_loop();
        assert!(matches!(
            ExecutionTable::of_halting(&spec.machine, 50),
            Err(TuringError::FuelExhausted { fuel: 50 })
        ));
    }

    #[test]
    fn truncated_table_of_nonhalting_machine() {
        let spec = zoo::infinite_loop();
        let t = ExecutionTable::truncated(&spec.machine, 6, 4);
        assert_eq!(t.height(), 6);
        assert_eq!(t.width(), 4);
        assert!(t.is_locally_consistent_fragment(&spec.machine));
        // Exactly one head per row even in the truncated table.
        for r in 0..6 {
            assert!(t.head_in_row(r).is_some() || t.row(r).iter().all(|c| c.head.is_none()));
        }
    }

    #[test]
    fn truncated_table_repeats_halting_configuration() {
        let m = bounce_machine();
        let t = ExecutionTable::truncated(&m, 6, 3);
        assert_eq!(t.row(3), t.row(4));
        assert_eq!(t.row(4), t.row(5));
        assert!(t.is_locally_consistent_fragment(&m));
    }

    #[test]
    fn window_extraction() {
        let m = bounce_machine();
        let t = ExecutionTable::of_halting(&m, 100).unwrap();
        let w = t.window(1, 1, 2).unwrap();
        assert_eq!(w.height(), 2);
        assert_eq!(w.width(), 2);
        assert_eq!(w.cell(0, 0).unwrap(), t.cell(1, 1).unwrap());
        assert!(t.window(2, 2, 3).is_err());
    }

    #[test]
    fn from_rows_validation() {
        assert!(ExecutionTable::from_rows(vec![]).is_err());
        assert!(ExecutionTable::from_rows(vec![vec![]]).is_err());
        assert!(ExecutionTable::from_rows(vec![vec![Cell::blank()], vec![]]).is_err());
        let ok = ExecutionTable::from_rows(vec![vec![Cell::blank()], vec![Cell::blank()]]);
        assert!(ok.is_ok());
    }

    #[test]
    fn corrupted_table_is_not_a_valid_prefix() {
        let m = bounce_machine();
        let t = ExecutionTable::of_halting(&m, 100).unwrap();
        let mut rows = t.rows().to_vec();
        rows[1][2] = Cell::symbol(Symbol(1)); // the machine never wrote there
        let corrupted = ExecutionTable::from_rows(rows).unwrap();
        assert!(!corrupted.is_valid_run_prefix(&m));
    }

    #[test]
    fn two_heads_in_a_row_is_invalid() {
        let m = bounce_machine();
        let rows = vec![
            vec![
                Cell::with_head(Symbol(0), State(0)),
                Cell::with_head(Symbol(0), State(0)),
            ],
            vec![Cell::blank(), Cell::blank()],
        ];
        let t = ExecutionTable::from_rows(rows).unwrap();
        assert!(!t.is_valid_run_prefix(&m));
        assert!(!t.is_locally_consistent_fragment(&m));
    }

    #[test]
    fn display_renders_every_cell() {
        let m = bounce_machine();
        let t = ExecutionTable::of_halting(&m, 100).unwrap();
        let rendering = t.to_string();
        assert_eq!(rendering.lines().count(), 3);
        assert!(rendering.contains("q0"));
    }
}
