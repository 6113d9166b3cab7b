module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Content = Bmcast_storage.Content
module Runtime = Bmcast_platform.Runtime

type result = { throughput_mb_s : float; ops : int; elapsed : Time.span }

let run op runtime ~total_bytes ~block_bytes ~start_lba =
  if block_bytes <= 0 || block_bytes mod 512 <> 0 then
    invalid_arg "Fio: block size must be a positive multiple of 512";
  let block_sectors = block_bytes / 512 in
  let ops = total_bytes / block_bytes in
  let block = Content.zeroes ~count:block_sectors in
  let t0 = Sim.clock () in
  for i = 0 to ops - 1 do
    let lba = start_lba + (i * block_sectors) in
    match op with
    | `Read -> runtime.Runtime.block_read ~lba ~count:block_sectors block
    | `Write ->
      runtime.Runtime.block_write ~lba ~count:block_sectors
        (Content.data_sectors ~count:block_sectors)
  done;
  let elapsed = Time.diff (Sim.clock ()) t0 in
  { throughput_mb_s =
      float_of_int (ops * block_bytes) /. Time.to_float_s elapsed /. 1e6;
    ops;
    elapsed }

let seq_read runtime ?(total_bytes = 200 * 1024 * 1024)
    ?(block_bytes = 1024 * 1024) ?(start_lba = 0) () =
  run `Read runtime ~total_bytes ~block_bytes ~start_lba

let seq_write runtime ?(total_bytes = 200 * 1024 * 1024) ?(start_lba = 0) () =
  run `Write runtime ~total_bytes ~block_bytes:(1024 * 1024) ~start_lba
