(** The environment a guest OS and its workloads see.

    Workloads are written once against this record and run unmodified on
    bare metal, on BMcast (through device mediators), or on KVM — the
    paper's OS-transparency property, as a typed interface. The stack
    assembler (experiment code) fills in the closures: block I/O goes
    through a guest device driver, CPU bursts through a {!Cpu_model},
    and the phase query reports the deployment state for time-series
    plots. *)

type phase =
  | Bare  (** no hypervisor *)
  | Deploying  (** BMcast streaming deployment in progress *)
  | Devirtualized  (** BMcast gone; raw hardware *)
  | Kvm  (** conventional hypervisor, always on *)

val pp_phase : Format.formatter -> phase -> unit

type t = {
  label : string;
  machine : Machine.t;
  block_read : lba:int -> count:int -> Bmcast_storage.Content.t array -> unit;
      (** [block_read ~lba ~count dst]: blocking read through the guest's
          storage driver into [dst.(0 .. count - 1)], as read(2) fills a
          caller's buffer ([dst] holds at least [count] sectors) *)
  block_write : lba:int -> count:int -> Bmcast_storage.Content.t array -> unit;
  cpu : Cpu_model.t;
  phase : unit -> phase;
}

val cpu_run :
  t -> core:int -> work:Bmcast_engine.Time.span -> mem_intensity:float -> unit
(** Run a CPU burst under the runtime's current taxes. *)
