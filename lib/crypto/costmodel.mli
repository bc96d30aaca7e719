(** Virtual-time cost model for cryptography and message handling.

    The paper (Section V) states that the bottleneck of BFT protocols
    is cryptography, not network usage, and that signatures are an
    order of magnitude more expensive than MACs. The simulator charges
    these costs to the CPU thread performing each operation. The
    paper's four stacks ran on one testbed with one crypto library, so
    every stack charges the same constants below; they are calibrated
    so that fault-free peak throughputs land in the range reported in
    Section VI-B (see EXPERIMENTS.md for the calibration notes).

    All costs are in virtual nanoseconds ({!Dessim.Time.t}). *)

val mac_base : Dessim.Time.t
(** Fixed cost of one MAC generate/verify: 1 us. *)

val mac_per_byte : float
(** ns per authenticated byte: 0.4. *)

val sig_sign_base : Dessim.Time.t
(** Fixed cost of signing a digest: 50 us. *)

val sig_verify_base : Dessim.Time.t
(** Fixed cost of verifying a signature: 25 us. *)

val digest_base : Dessim.Time.t
(** Fixed cost of a SHA-256 call: 300 ns. *)

val digest_per_byte : float
(** ns per hashed byte: 1.5. *)

val handling : Dessim.Time.t
(** Per-message fixed send/receive overhead: 2 us. *)

val touch_per_byte : float
(** ns per byte of payload copied through a stage: 8.0. *)

val mac_gen : Bftmetrics.Probe.t -> bytes:int -> Dessim.Time.t
(** Cost of generating one MAC over [bytes]. *)

val mac_verify : Bftmetrics.Probe.t -> bytes:int -> Dessim.Time.t

val authenticator_gen : Bftmetrics.Probe.t -> bytes:int -> count:int -> Dessim.Time.t
(** Cost of a MAC authenticator: one pass over the message plus
    [count] keyed finalizations. *)

val digest : Bftmetrics.Probe.t -> bytes:int -> Dessim.Time.t

val sig_sign : Bftmetrics.Probe.t -> bytes:int -> Dessim.Time.t
(** Digest the message, then sign the digest. *)

val sig_verify : Bftmetrics.Probe.t -> bytes:int -> Dessim.Time.t

val recv : bytes:int -> Dessim.Time.t
(** Per-message receive overhead: fixed handling plus byte touching. *)

val send : bytes:int -> Dessim.Time.t
(** Per-message send overhead. *)
