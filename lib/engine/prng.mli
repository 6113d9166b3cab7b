(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the simulator draws from an explicitly
    seeded [Prng.t], so simulation runs are exactly reproducible. [split]
    derives an independent stream, letting subsystems own private streams
    whose draws do not perturb each other. *)

type t

val create : int -> t
(** [create seed] makes a generator from an integer seed. *)

val split : t -> t
(** Derive an independent generator; advances the parent by one draw. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential with the given mean. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box-Muller normal sample. *)

val zipf : t -> n:int -> theta:float -> int
(** Zipf-distributed rank in [\[0, n)] with skew [theta] (YCSB-style
    request popularity). Uses the rejection-inversion-free approximation
    of Gray et al. as used in the YCSB generator. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
