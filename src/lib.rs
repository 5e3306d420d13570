//! # fibcube — Generalized Fibonacci Cubes
//!
//! A full reproduction of Ilić, Klavžar, Rho, *Generalized Fibonacci
//! cubes*, Discrete Mathematics 312 (2012) 2–11, together with the
//! interconnection-network layer of the homonymous ICPP'93 lineage
//! (Hsu–Liu–Chung) that the paper builds on.
//!
//! The generalized Fibonacci cube `Q_d(f)` is the subgraph of the
//! hypercube `Q_d` induced by the binary strings of length `d` avoiding
//! the *forbidden factor* `f`; `Q_d(11)` is the classical Fibonacci cube
//! `Γ_d`. The central question of the paper — for which `f` and `d` is
//! `Q_d(f)` an **isometric** subgraph of `Q_d`? — is implemented here as a
//! parallel decision procedure, an oracle of the paper's theorems, and a
//! classification engine regenerating the paper's Table 1.
//!
//! ## Quickstart
//!
//! ```
//! use fibcube::core::Qdf;
//! use fibcube::words::word;
//!
//! // Build Γ_6 = Q_6(11): F_8 = 21 vertices, isometric in Q_6.
//! let gamma = Qdf::fibonacci(6);
//! assert_eq!(gamma.order(), 21);
//! assert!(fibcube::core::is_isometric(&gamma));
//!
//! // Q_4(101) — the paper's Figure 1 — is NOT isometric in Q_4 …
//! let q4_101 = Qdf::new(4, word("101"));
//! assert!(!fibcube::core::is_isometric(&q4_101));
//!
//! // … and the paper's theorems predict both facts:
//! assert!(fibcube::core::predict(&word("11"), 6).unwrap().embeddable);
//! assert!(!fibcube::core::predict(&word("101"), 4).unwrap().embeddable);
//! ```
//!
//! ## Crate map
//!
//! | Facade module | Crate | Contents |
//! |---|---|---|
//! | [`words`] | `fibcube-words` | binary words, factors, avoidance automata, Zeckendorf codes |
//! | [`graph`] | `fibcube-graph` | CSR graphs, parallel BFS, medians, squares, DOT |
//! | [`core`] | `fibcube-core` | `Q_d(f)`, isometry checker, critical words, theorem oracle, Table 1 |
//! | [`isometry`] | `fibcube-isometry` | Θ/Θ*, partial cubes, `idim`, `dim_f`, the Section 8 example |
//! | [`enumeration`] | `fibcube-enum` | vertex/edge/square counting, recurrences (1)–(6), Props 6.2/6.3 |
//! | [`network`] | `fibcube-network` | `Q_d(1^k)` networks: the `Experiment` API, routing, broadcast, simulation, faults |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fibcube_core as core;
pub use fibcube_enum as enumeration;
pub use fibcube_graph as graph;
pub use fibcube_isometry as isometry;
pub use fibcube_network as network;
pub use fibcube_words as words;

/// The most commonly used items in one import.
pub mod prelude {
    pub use fibcube_core::{is_isometric, predict, predict_paper, qdf_isometric, EmbedClass, Qdf};
    pub use fibcube_enum::{count_edges, count_squares, count_vertices};
    pub use fibcube_graph::CsrGraph;
    pub use fibcube_isometry::{dim_f_exact, dim_f_upper, isometric_dimension};
    pub use fibcube_network::{
        CollectiveSpec, Experiment, FaultSpec, FibonacciNet, Hypercube, Report, Router, RouterSpec,
        Topology, TrafficSpec,
    };
    pub use fibcube_words::{word, FactorAutomaton, Word};
}
