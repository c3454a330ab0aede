let () = print_int Fixapi.Api.bench_only
