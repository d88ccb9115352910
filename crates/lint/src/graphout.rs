//! `--graph-out` renderers: the call graph and the lock-order graph,
//! each as Graphviz DOT and as JSON (hand-rolled, std-only, escaped by
//! the workspace's one JSON codec, `adc_trace::json`).

use adc_trace::json::escape;

use crate::graph::{FileData, Graph};
use crate::locks::LockGraph;

/// Rendered export artifacts, ready to write to disk.
#[derive(Debug, Clone, Default)]
pub struct GraphExports {
    /// Workspace call graph, DOT.
    pub callgraph_dot: String,
    /// Workspace call graph + resolution stats, JSON.
    pub callgraph_json: String,
    /// Lock-order graph, DOT (edges labelled with a witness).
    pub lockgraph_dot: String,
    /// Lock-order graph, JSON (all witnesses).
    pub lockgraph_json: String,
}

fn esc_dot(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders every export from the built graphs.
pub(crate) fn render(graph: &Graph, files: &[FileData<'_>], locks: &LockGraph) -> GraphExports {
    let mut cg_dot = String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box];\n");
    for (i, sym) in graph.syms.iter().enumerate() {
        cg_dot.push_str(&format!("  n{} [label=\"{}\"];\n", i, esc_dot(&sym.qname)));
    }
    for (caller, sites) in graph.sites.iter().enumerate() {
        for site in sites {
            for &callee in &site.callees {
                let style = if site.is_ref { " [style=dashed]" } else { "" };
                cg_dot.push_str(&format!("  n{caller} -> n{callee}{style};\n"));
            }
        }
    }
    cg_dot.push_str("}\n");

    let mut cg_json = String::from("{\n  \"functions\": [\n");
    for (i, sym) in graph.syms.iter().enumerate() {
        let file = files.get(sym.file).map(|f| f.rel_path).unwrap_or_default();
        cg_json.push_str(&format!(
            "    {{\"id\": {i}, \"name\": \"{}\", \"file\": \"{}\", \"line\": {}}}{}\n",
            escape(&sym.qname),
            escape(file),
            sym.item.line,
            if i + 1 < graph.syms.len() { "," } else { "" }
        ));
    }
    cg_json.push_str("  ],\n  \"edges\": [\n");
    let mut edges: Vec<(usize, usize, bool)> = Vec::new();
    for (caller, sites) in graph.sites.iter().enumerate() {
        for site in sites {
            for &callee in &site.callees {
                edges.push((caller, callee, site.is_ref));
            }
        }
    }
    for (k, (a, b, is_ref)) in edges.iter().enumerate() {
        cg_json.push_str(&format!(
            "    [{a}, {b}, {}]{}\n",
            if *is_ref { "\"ref\"" } else { "\"call\"" },
            if k + 1 < edges.len() { "," } else { "" }
        ));
    }
    let st = &graph.stats;
    cg_json.push_str(&format!(
        "  ],\n  \"stats\": {{\"functions\": {}, \"edges\": {}, \"sites\": {}, \
         \"unique\": {}, \"ambiguous\": {}, \"dynamic\": {}, \"external\": {}, \
         \"resolution_rate\": {:.4}, \"unresolved\": [\n",
        st.functions,
        st.edges,
        st.sites,
        st.unique,
        st.ambiguous,
        st.dynamic,
        st.external,
        st.resolution_rate()
    ));
    for (k, u) in st.unresolved.iter().enumerate() {
        cg_json.push_str(&format!(
            "    \"{}\"{}\n",
            escape(u),
            if k + 1 < st.unresolved.len() { "," } else { "" }
        ));
    }
    cg_json.push_str("  ]}\n}\n");

    let mut lg_dot = String::from("digraph lockorder {\n  node [shape=ellipse];\n");
    let mut nodes: Vec<&str> = Vec::new();
    for (a, b) in locks.edges.keys() {
        for n in [a.as_str(), b.as_str()] {
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
    }
    for n in &nodes {
        lg_dot.push_str(&format!("  \"{}\";\n", esc_dot(n)));
    }
    for ((a, b), ws) in &locks.edges {
        let label = ws
            .first()
            .map(|(f, l, _)| format!("{f}:{l}"))
            .unwrap_or_default();
        lg_dot.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
            esc_dot(a),
            esc_dot(b),
            esc_dot(&label)
        ));
    }
    lg_dot.push_str("}\n");

    let mut lg_json = String::from("{\n  \"edges\": [\n");
    let total = locks.edges.len();
    for (k, ((a, b), ws)) in locks.edges.iter().enumerate() {
        lg_json.push_str(&format!(
            "    {{\"held\": \"{}\", \"acquires\": \"{}\", \"witnesses\": [",
            escape(a),
            escape(b)
        ));
        for (j, (f, l, q)) in ws.iter().enumerate() {
            lg_json.push_str(&format!(
                "{}{{\"file\": \"{}\", \"line\": {l}, \"fn\": \"{}\"}}",
                if j > 0 { ", " } else { "" },
                escape(f),
                escape(q)
            ));
        }
        lg_json.push_str(&format!("]}}{}\n", if k + 1 < total { "," } else { "" }));
    }
    lg_json.push_str("  ]\n}\n");

    GraphExports {
        callgraph_dot: cg_dot,
        callgraph_json: cg_json,
        lockgraph_dot: lg_dot,
        lockgraph_json: lg_json,
    }
}
