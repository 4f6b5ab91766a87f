//! One module per reproduced table/figure of the paper's evaluation,
//! plus post-paper studies ([`fig_sharing`], [`fig_mix`]).

pub mod fig01;
pub mod fig03;
pub mod fig05;
pub mod fig06;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig_mix;
pub mod fig_sharing;
pub mod tables;
