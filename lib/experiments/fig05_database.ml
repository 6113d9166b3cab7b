module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Os = Bmcast_guest.Os
module Ycsb = Bmcast_guest.Ycsb
module Vmm = Bmcast_core.Vmm

type result = {
  db : string;
  bare_kops : float;
  bare_lat_us : float;
  deploy_kops : float;
  deploy_lat_us : float;
  after_kops : float;
  after_lat_us : float;
  kvm_kops : float;
  kvm_lat_us : float;
  deploy_minutes : float;
  series : (float * float * float) list;
}

let profile_of = function
  | `Memcached -> Ycsb.memcached
  | `Cassandra -> Ycsb.cassandra

(* Steady-state run on a static stack (bare metal / KVM). *)
let steady_run env runtime profile =
  let out = ref (0.0, 0.0) in
  Stacks.run env (fun () ->
      Os.boot runtime ();
      let samples = Ycsb.run runtime profile ~duration:(Time.s 120) () in
      out := Ycsb.average samples ~between:(Time.s 10, Time.s 120));
  !out

(* Every run deploys the paper's 32 GB image ([Stacks.make_env]'s
   default). *)
let measure ~db =
  let profile = profile_of db in
  let bare_kops, bare_lat_us =
    let env = Stacks.make_env () in
    let m = Stacks.machine env ~name:"bare" () in
    let rt = Stacks.bare env m in
    steady_run env rt profile
  in
  let kvm_kops, kvm_lat_us =
    let env = Stacks.make_env () in
    let m = Stacks.machine env ~name:"kvm" () in
    let rt, _ = Stacks.kvm_local env m in
    steady_run env rt profile
  in
  (* BMcast: YCSB starts right after the streamed instance boots and
     keeps running across de-virtualization. *)
  let env = Stacks.make_env () in
  let m = Stacks.machine env ~name:"bmcast" () in
  let samples = ref [] in
  let devirt_at = ref None in
  Stacks.run env (fun () ->
      let rt, vmm = Stacks.bmcast env m () in
      Os.boot rt ();
      let t0 = Sim.clock () in
      Sim.spawn (fun () ->
          Vmm.wait_devirtualized vmm;
          devirt_at :=
            Option.map
              (fun t -> Time.to_float_s (Time.diff t t0))
              (Vmm.devirtualized_at vmm));
      let duration =
        (* enough to cover deployment plus a post-devirt window *)
        Time.add (Time.minutes 22) (Time.s 240)
      in
      samples := Ycsb.run rt profile ~duration ());
  let devirt_s =
    Option.value !devirt_at ~default:(22.0 *. 60.0)
  in
  let avg ~from ~until =
    Ycsb.average !samples ~between:(Time.of_float_s from, Time.of_float_s until)
  in
  let deploy_kops, deploy_lat_us = avg ~from:10.0 ~until:(devirt_s -. 5.0) in
  let after_kops, after_lat_us =
    avg ~from:(devirt_s +. 10.0) ~until:(devirt_s +. 230.0)
  in
  { db = profile.Ycsb.db_name;
    bare_kops;
    bare_lat_us;
    deploy_kops;
    deploy_lat_us;
    after_kops;
    after_lat_us;
    kvm_kops;
    kvm_lat_us;
    deploy_minutes = devirt_s /. 60.0;
    series =
      List.map
        (fun s ->
          ( Time.to_float_s s.Ycsb.at,
            s.Ycsb.kops_per_s,
            s.Ycsb.latency_us ))
        !samples }

let paper = function
  | "memcached" ->
    (* bare kops, bare lat, deploy kops, deploy lat, kvm kops, kvm lat,
       after kops, after lat, deploy minutes *)
    (36.4, 281.0, 34.6, 291.0, 33.9, 334.0, 36.4, 281.0, 16.0)
  | "cassandra" -> (58.0, 2443.0, 51.4, 2609.0, 52.1, 2533.0, 60.0, 2443.0, 17.0)
  | _ -> (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

let report r =
  let p_bare_k, p_bare_l, p_dep_k, p_dep_l, p_kvm_k, p_kvm_l, p_aft_k, p_aft_l,
      p_min =
    paper r.db
  in
  Report.note "--- %s ---" r.db;
  Report.row ~label:"bare-metal throughput" ~paper:p_bare_k ~units:"kT/s" r.bare_kops;
  Report.row ~label:"bare-metal latency" ~paper:p_bare_l ~units:"us" r.bare_lat_us;
  Report.row ~label:"BMcast deploy throughput" ~paper:p_dep_k ~units:"kT/s" r.deploy_kops;
  Report.row ~label:"BMcast deploy latency" ~paper:p_dep_l ~units:"us" r.deploy_lat_us;
  Report.row ~label:"BMcast after devirt throughput" ~paper:p_aft_k ~units:"kT/s" r.after_kops;
  Report.row ~label:"BMcast after devirt latency" ~paper:p_aft_l ~units:"us" r.after_lat_us;
  Report.row ~label:"KVM throughput" ~paper:p_kvm_k ~units:"kT/s" r.kvm_kops;
  Report.row ~label:"KVM latency" ~paper:p_kvm_l ~units:"us" r.kvm_lat_us;
  Report.row ~label:"deployment duration" ~paper:p_min ~units:"min" r.deploy_minutes;
  (* A condensed time series: one row per 2 minutes. *)
  Report.series_header [ "t(s)"; "kT/s"; "lat(us)" ];
  List.iteri
    (fun i (t, k, l) ->
      if i mod 12 = 0 then Report.series_row (Printf.sprintf "t=%.0fs" t) [ t; k; l ])
    r.series

let run () =
  Report.section "Figure 5: database benchmarks (YCSB) across deployment";
  report (measure ~db:`Memcached);
  report (measure ~db:`Cassandra)
